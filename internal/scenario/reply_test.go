package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// replyRunner answers every spec with a prediction of the spec's horizon:
// three banded series, as large as a real reply, with values that exercise
// float formatting and a reason that exercises HTML escaping.
func replyRunner(_ context.Context, spec Spec) (*Result, error) {
	band := func(k float64) Band {
		b := Band{}
		for d := 0; d < spec.Days; d++ {
			v := k * float64(d*d+1) / 3
			b.Median = append(b.Median, v)
			b.Lo = append(b.Lo, v*0.9)
			b.Hi = append(b.Hi, v*1.1+1e-7)
		}
		return b
	}
	return &Result{Prediction: &PredictionResult{
		Confirmed: band(1), Hospitalized: band(0.07), Deaths: band(0.011), Counties: 133,
	}, Tier: "metapop", TierReason: "budget <3 & family warm", Uncertainty: 0.42}, nil
}

func replyServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc := NewService(Config{Workers: 2, QueueCap: 64, CacheCap: 2 * recentCap, Runner: replyRunner, Fingerprint: "test"})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: %d %q", url, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	return body
}

// legacyEncode is how replies were written before hits were memoized: a
// json.Encoder with two-space indent, straight onto the response.
func legacyEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// settle pushes recentCap unrelated jobs through the service, so hash is no
// longer pollable as a recent job and GET …/result reads the result store.
func settle(t *testing.T, svc *Service, hash string) {
	t.Helper()
	for k := 0; k < recentCap; k++ {
		j, err := svc.SubmitCtx(context.Background(), Spec{Workflow: "prediction", State: "RI", Days: 2 + k}, PriorityNormal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		j.Release()
	}
	svc.mu.Lock()
	_, recent := svc.registry[hash]
	svc.mu.Unlock()
	if recent {
		t.Fatalf("%s still pollable as a recent job", hash)
	}
}

// TestReplyBytesSameOnMissAndHits: the miss reply, the first hit and later
// hits are byte-equal, through POST and through GET …/result, and equal to
// the encoder replies were written with before hits were memoized.
func TestReplyBytesSameOnMissAndHits(t *testing.T) {
	ts, svc := replyServer(t)
	spec := Spec{Workflow: "prediction", State: "VA", Days: 60}
	resp, miss := postSpec(t, ts, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss: %d %s", resp.StatusCode, miss)
	}
	var res Result
	if err := json.Unmarshal(miss, &res); err != nil {
		t.Fatal(err)
	}
	e, ok := svc.store.Peek(res.Hash)
	if !ok {
		t.Fatal("result not in the store")
	}
	if want := legacyEncode(t, e.res); !bytes.Equal(miss, want) {
		t.Fatalf("miss reply differs from the legacy encoding:\n%s\nwant\n%s", miss, want)
	}
	if len(miss) < 10_000 {
		t.Fatalf("reply is %d bytes, want a real-sized one", len(miss))
	}
	resultURL := ts.URL + "/scenarios/" + res.Hash + "/result"
	replies := map[string][]byte{"GET recent job": getBody(t, resultURL)}
	for k := 1; k <= 3; k++ {
		resp, body := postSpec(t, ts, spec, "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hit %d: %d %s", k, resp.StatusCode, body)
		}
		replies[fmt.Sprintf("POST hit %d", k)] = body
	}
	settle(t, svc, res.Hash)
	for k := 1; k <= 2; k++ {
		replies[fmt.Sprintf("GET store hit %d", k)] = getBody(t, resultURL)
	}
	for name, body := range replies {
		if !bytes.Equal(body, miss) {
			t.Errorf("%s differs from the miss reply:\n%s\nwant\n%s", name, body, miss)
		}
	}
}

// TestReplyConcurrentFirstHit: sixteen requests hit one fresh entry at once,
// half through POST and half through GET …/result; all get the miss reply.
func TestReplyConcurrentFirstHit(t *testing.T) {
	ts, svc := replyServer(t)
	spec := Spec{Workflow: "prediction", State: "VA", Days: 60}
	_, miss := postSpec(t, ts, spec, "?wait=1")
	var res Result
	if err := json.Unmarshal(miss, &res); err != nil {
		t.Fatal(err)
	}
	settle(t, svc, res.Hash)
	start := make(chan struct{})
	bodies := make([][]byte, 16)
	var wg sync.WaitGroup
	for k := range bodies {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			if k%2 == 0 {
				_, bodies[k] = postSpec(t, ts, spec, "?wait=1")
			} else {
				bodies[k] = getBody(t, ts.URL+"/scenarios/"+res.Hash+"/result")
			}
		}(k)
	}
	close(start)
	wg.Wait()
	for k, body := range bodies {
		if !bytes.Equal(body, miss) {
			t.Errorf("request %d: reply differs from the miss reply", k)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestRepeatedHitDoesNotEncode: once an entry has been hit, writing its
// reply again allocates nothing but the Content-Type header, where
// encoding the same result allocates a reply's worth and more.
func TestRepeatedHitDoesNotEncode(t *testing.T) {
	res, err := replyRunner(context.Background(), Spec{Days: 60})
	if err != nil {
		t.Fatal(err)
	}
	hit := completedJob("h", Spec{}, &storeEntry{res: res})
	w := &discardWriter{h: http.Header{}}
	writeResult(w, hit, res) // the first hit encodes
	if a := testing.AllocsPerRun(100, func() { writeResult(w, hit, res) }); a > 1 {
		t.Errorf("repeated hit: %v allocations, want ≤ 1", a)
	}
	miss := &Job{}
	if a := testing.AllocsPerRun(100, func() { writeResult(w, miss, res) }); a <= 1 {
		t.Errorf("encoding path: %v allocations, want > 1 for the bound above to mean anything", a)
	}
}
