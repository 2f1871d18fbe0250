package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// replyRunner answers every spec with a prediction of the spec's horizon:
// three banded series, as large as a real reply, with values that exercise
// float formatting and a reason that exercises HTML escaping.
func replyRunner(_ context.Context, spec Spec) (*Result, error) {
	band := func(k float64) core.Forecast {
		b := core.Forecast{}
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

// marshalReply is the reference every reply must equal: MarshalIndent with
// two-space indent, plus the trailing newline.
func marshalReply(r *Result) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	return append(b, '\n'), err
}

// checkReply requires the writer's bytes, and its verdict on encodability,
// to be MarshalIndent's.
func checkReply(t *testing.T, r *Result) {
	t.Helper()
	want, werr := marshalReply(r)
	got, gerr := appendResult(nil, r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("writer error %v, MarshalIndent error %v", gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("writer bytes differ from MarshalIndent:\n%s\nwant\n%s", got, want)
	}
}

// fill sets every exported field reachable from v to a distinct non-zero
// value: two elements per slice, a value behind every pointer.
func fill(v reflect.Value, next *int) {
	*next++
	k := *next
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", k))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(k))
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(k))
	case reflect.Float64:
		v.SetFloat(float64(k) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), next)
			}
		}
	default:
		panic("fill: no value for kind " + v.Kind().String())
	}
}

// TestReplyWriterCoversEveryField fills every exported field of Result,
// recursively, so a field added to the reply without a writer line changes
// MarshalIndent's bytes and not the writer's.
func TestReplyWriterCoversEveryField(t *testing.T) {
	var r Result
	n := 0
	fill(reflect.ValueOf(&r).Elem(), &n)
	checkReply(t, &r)
	if r.Night == nil || len(r.Spec.WhatIfs) != 2 || r.Spec.Night.Seed == 0 {
		t.Fatalf("fill left fields empty: %+v", r)
	}
}

// replyFloats are the values float formatting turns on: signed zeros, the
// 'e' boundaries at 1e-6 and 1e21 and their neighbours, the extremes.
var replyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
	1e-7, 1.5e-9, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e300,
	5e-324, math.MaxFloat64, 123456.789, 2.220446049250313e-16,
}

// replyStrings need escaping in every way encoding/json escapes, or none.
var replyStrings = []string{
	"", "metapop", "budget <3 & family warm", "R&D", "a>b", "a\"b\\c", "\x00\x1f\t\n\r\b\f",
	"\xff\xfeinvalid", "  ", "héllo", "\x7f",
}

// randomResult draws a Result of any workflow and tier from r, mixing x
// and s into the float and string values.
func randomResult(r *rand.Rand, x float64, s string) *Result {
	num := func() float64 {
		switch r.IntN(4) {
		case 0:
			return x
		case 1:
			return r.NormFloat64() * math.Pow(10, float64(r.IntN(50)-25))
		}
		return replyFloats[r.IntN(len(replyFloats))]
	}
	str := func() string {
		if r.IntN(3) == 0 {
			return s
		}
		return replyStrings[r.IntN(len(replyStrings))]
	}
	integer := func() int {
		if r.IntN(2) == 0 {
			return 0
		}
		return int(r.Int64()) >> r.IntN(64)
	}
	series := func() []float64 {
		switch r.IntN(4) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		v := make([]float64, r.IntN(6))
		for i := range v {
			v[i] = num()
		}
		return v
	}
	band := func() core.Forecast { return core.Forecast{Median: series(), Lo: series(), Hi: series()} }
	res := &Result{Hash: str(), Workflow: str(), ElapsedSeconds: num()}
	sp := &res.Spec
	sp.Workflow, sp.State, sp.Fidelity = str(), str(), str()
	sp.Days, sp.Replicates, sp.SHStart, sp.SHEnd, sp.Shards = integer(), integer(), integer(), integer(), integer()
	sp.MaxUncertainty = num()
	for range r.IntN(3) {
		sp.Configs = append(sp.Configs, ParamSpec{TAU: num(), SYMP: num(), SHCompliance: num(), VHICompliance: num()})
	}
	if r.IntN(4) == 0 {
		sp.Configs = []ParamSpec{}
	}
	for range r.IntN(3) {
		sp.WhatIfs = append(sp.WhatIfs, WhatIfSpec{Name: str(), PivotDay: integer(), SHEndShift: integer(),
			ComplianceScale: num(), AddTesting: num(), AddTracing: integer(), TraceDetectProb: num()})
	}
	if r.IntN(3) == 0 {
		sp.Night = &NightSpec{Family: str(), Cells: integer(), Replicates: integer(), Heuristic: str()}
		if r.IntN(2) == 0 {
			sp.Night.Seed = r.Uint64()
		}
	}
	switch r.IntN(4) {
	case 0:
		res.Prediction = &PredictionResult{Confirmed: band(), Hospitalized: band(), Deaths: band(), Counties: integer()}
	case 1:
		res.Scenarios = []ScenarioResult{}
		for range r.IntN(3) {
			res.Scenarios = append(res.Scenarios, ScenarioResult{Name: str(), Confirmed: band(), Deaths: band()})
		}
	case 2:
		res.Night = &NightResult{Tasks: integer(), Completed: integer(), Unstarted: integer(), Retries: integer(),
			Shed: integer(), Makespan: num(), Utilization: num(), FitsWindow: r.IntN(2) == 0,
			ConfigBytes: int64(integer()), SummaryB: int64(integer()), RawBytes: int64(integer())}
	}
	if r.IntN(2) == 0 {
		res.Tier, res.TierReason, res.Uncertainty = str(), str(), num()
	}
	return res
}

// FuzzReplyMatchesMarshalIndent: random Results of every workflow and tier
// give the writer's bytes MarshalIndent gives, and fail on the same values.
func FuzzReplyMatchesMarshalIndent(f *testing.F) {
	f.Add(uint64(1), 0.5, "emulator")
	f.Add(uint64(2), 1e-7, "<script>&amp;</script>")
	f.Add(uint64(3), math.Copysign(0, -1), "\xc3\x28")
	f.Add(uint64(4), 1e21, " ")
	f.Add(uint64(5), math.Inf(1), "")
	f.Fuzz(func(t *testing.T, seed uint64, x float64, s string) {
		r := rand.New(rand.NewPCG(seed, 0x5eed))
		for range 8 {
			checkReply(t, randomResult(r, x, s))
		}
	})
}

// infRunner answers with a band JSON cannot carry.
func infRunner(context.Context, Spec) (*Result, error) {
	return &Result{Prediction: &PredictionResult{Confirmed: core.Forecast{Median: []float64{1, math.Inf(1)}}}}, nil
}

// TestUnencodableResultIs500: a result with an infinity is a 500 with reason
// "unencodable" on the miss and on every hit after it, and its store entry
// keeps no reply bytes.
func TestUnencodableResultIs500(t *testing.T) {
	svc := NewService(Config{Workers: 1, QueueCap: 4, CacheCap: 4, Runner: infRunner, Fingerprint: "test"})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	spec := Spec{Workflow: "prediction", State: "VA", Days: 2}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := norm.Hash("test")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, resp *http.Response, body []byte) {
		t.Helper()
		var got map[string]string
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusInternalServerError || got["reason"] != "unencodable" {
			t.Fatalf("%s: %d %s (%v), want 500 unencodable", name, resp.StatusCode, body, err)
		}
	}
	for k := range 2 {
		resp, body := postSpec(t, ts, spec, "?wait=1")
		check(fmt.Sprintf("POST %d", k), resp, body)
	}
	resp, err := http.Get(ts.URL + "/scenarios/" + hash + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("GET result", resp, body)
	e, ok := svc.store.Peek(hash)
	if !ok {
		t.Fatal("result not in the store")
	}
	if b, err := e.body(); err == nil || b != nil || e.reply != nil {
		t.Fatalf("entry body %q, %v; memoized %q", b, err, e.reply)
	}
}

// BenchmarkReply prices one fresh 60-day prediction reply: the writer into
// a reused buffer, against the MarshalIndent it replaces.
func BenchmarkReply(b *testing.B) {
	res, err := replyRunner(context.Background(), Spec{Days: 60})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			buf, _ = appendResult(buf[:0], res)
		}
	})
	b.Run("MarshalIndent", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			_, _ = marshalReply(res)
		}
	})
}
