package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// obsServer builds a stub-backed server with serving observability over a
// shared registry, so RED series land on the same /metrics the service
// exports.
func obsServer(t *testing.T, workers, queueCap int) (*httptest.Server, *stubRunner) {
	t.Helper()
	reg := obs.NewRegistry()
	r := newStubRunner()
	svc := NewService(Config{
		Workers: workers, QueueCap: queueCap, Runner: r.run,
		Fingerprint: "test", Registry: reg,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	so := NewServingObs(reg, ServingObsConfig{RecorderCapacity: 64, SLOTarget: time.Minute})
	ts := httptest.NewServer(NewServer(svc, so))
	t.Cleanup(ts.Close)
	return ts, r
}

// postSpecID posts a spec with an explicit X-Request-Id header.
func postSpecID(t *testing.T, ts *httptest.Server, spec Spec, query, reqID string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/scenarios"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// findSpan walks a snapshot tree for a span by name.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := findSpan(c, name); m != nil {
			return m
		}
	}
	return nil
}

// TestServingObsTraceEndToEnd drives one synchronous request through the
// traced server and pulls its span tree back out of the flight recorder:
// the trace must carry the queue wait and the engine-side job.run span, the
// classified workflow/priority, and the content-address annotation.
func TestServingObsTraceEndToEnd(t *testing.T) {
	ts, r := obsServer(t, 2, 8)
	r.releaseAll(1)

	const reqID = "feedfacefeedface"
	resp, _ := postSpecID(t, ts, predSpec("VA", 42), "?wait=1&priority=interactive", reqID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Fatalf("X-Request-Id echo = %q, want %q", got, reqID)
	}

	var view obs.TraceView
	if code := getJSON(t, ts.URL+"/debug/requests/"+reqID, &view); code != http.StatusOK {
		t.Fatalf("debug get: %d", code)
	}
	if view.ID != reqID || view.Workflow != "prediction" || view.Priority != "interactive" {
		t.Fatalf("trace summary: %+v", view.TraceSummary)
	}
	if view.Status != http.StatusOK || !view.Done {
		t.Fatalf("trace not finished: status=%d done=%v", view.Status, view.Done)
	}
	if view.Annos["hash"] == nil {
		t.Fatalf("missing hash annotation: %v", view.Annos)
	}
	qs := findSpan(view.Root, "queue.wait")
	if qs == nil {
		t.Fatalf("no queue.wait span in trace: %+v", view.Root)
	}
	if qs.Attrs["outcome"] != "run" {
		t.Fatalf("queue.wait outcome: %v", qs.Attrs)
	}
	if findSpan(view.Root, "job.run") == nil {
		t.Fatal("no job.run span in trace")
	}

	// The listing includes the request, newest first.
	var list struct {
		Count    int                `json:"count"`
		Requests []obs.TraceSummary `json:"requests"`
	}
	if code := getJSON(t, ts.URL+"/debug/requests", &list); code != http.StatusOK {
		t.Fatalf("debug list: %d", code)
	}
	found := false
	for _, s := range list.Requests {
		found = found || s.ID == reqID
	}
	if !found || list.Count == 0 {
		t.Fatalf("request %s missing from listing: %+v", reqID, list)
	}
}

// TestServingObsMintsRequestID checks a client that sends no X-Request-Id
// still gets a retrievable trace under a server-minted ID.
func TestServingObsMintsRequestID(t *testing.T) {
	ts, r := obsServer(t, 1, 4)
	r.releaseAll(1)
	resp, _ := postSpecID(t, ts, predSpec("RI", 30), "?wait=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 16 {
		t.Fatalf("minted id %q, want 16 hex chars", id)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/"+id, nil); code != http.StatusOK {
		t.Fatalf("trace for minted id: %d", code)
	}
}

// TestServingObsAsyncTraceFills pins the flight recorder's live-trace
// semantics: a 202 submission's trace is recorded at HTTP completion but
// keeps growing as the job runs, so a later read shows the engine span.
func TestServingObsAsyncTraceFills(t *testing.T) {
	ts, r := obsServer(t, 1, 4)
	resp, _ := postSpecID(t, ts, predSpec("VT", 21), "", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	<-r.started // the job is now running; its trace already holds queue.wait
	var view obs.TraceView
	if code := getJSON(t, ts.URL+"/debug/requests/"+id, &view); code != http.StatusOK {
		t.Fatalf("debug get: %d", code)
	}
	if view.Status != http.StatusAccepted {
		t.Fatalf("async trace status = %d, want 202", view.Status)
	}
	if findSpan(view.Root, "job.run") != nil {
		t.Fatal("job.run closed before the gate opened")
	}
	r.releaseAll(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/debug/requests/"+id, &view)
		if findSpan(view.Root, "job.run") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job.run span never appeared in the async trace")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServingObsREDAndSLO checks the RED series reach /metrics and the /slo
// report books good traffic while excluding 4xx from the SLI.
func TestServingObsREDAndSLO(t *testing.T) {
	ts, r := obsServer(t, 1, 4)
	r.releaseAll(1)
	if resp, _ := postSpecID(t, ts, predSpec("VA", 14), "?wait=1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// A 4xx: bad workflow fails validation. Excluded from the SLI, but the
	// errored trace is always-kept in the recorder.
	resp, _ := postSpecID(t, ts, Spec{Workflow: "bogus"}, "?wait=1", "badbadbadbadbad0")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	for _, want := range []string{
		`epi_http_requests_total{workflow="prediction",priority="normal",code="200"} 1`,
		`epi_http_requests_total{workflow="other",priority="normal",code="400"} 1`,
		`epi_http_request_seconds`,
		`epi_slo_burn_rate`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, metrics)
		}
	}

	var slo struct {
		Aggregate obs.SLOReport            `json:"aggregate"`
		Series    map[string]obs.SLOReport `json:"series"`
	}
	if code := getJSON(t, ts.URL+"/slo", &slo); code != http.StatusOK {
		t.Fatalf("/slo: %d", code)
	}
	if slo.Aggregate.TotalGood != 1 || slo.Aggregate.TotalBad != 0 {
		t.Fatalf("aggregate SLI: good=%d bad=%d (4xx must not count)",
			slo.Aggregate.TotalGood, slo.Aggregate.TotalBad)
	}
	if _, ok := slo.Series["prediction|normal"]; !ok {
		t.Fatalf("missing prediction|normal series: %v", slo.Series)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/badbadbadbadbad0", nil); code != http.StatusOK {
		t.Fatalf("errored trace not kept: %d", code)
	}
}

// TestServingObsBadWorkflowLabelBounded: the workflow of a rejected spec is
// client input, so labelling metrics with it would mint a request series and
// an SLO tracker with three burn-rate gauges per distinct name, none ever
// evicted. Every rejected name shares the "other" label.
func TestServingObsBadWorkflowLabelBounded(t *testing.T) {
	ts, _ := obsServer(t, 1, 4)
	seriesCount := func() (requests, burn int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "epi_http_requests_total{") {
				requests++
			}
			if strings.HasPrefix(line, "epi_slo_burn_rate{") {
				burn++
			}
		}
		return requests, burn
	}
	postBogus := func(i int) {
		t.Helper()
		resp, _ := postSpecID(t, ts, Spec{Workflow: fmt.Sprintf(" Bogus%d", i)}, "", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bogus workflow %d: status %d want 400", i, resp.StatusCode)
		}
	}
	const n = 50
	postBogus(0)
	r0, b0 := seriesCount()
	for i := 1; i < n; i++ {
		postBogus(i)
	}
	if r, b := seriesCount(); r != r0 || b != b0 {
		t.Errorf("%d distinct bad workflows grew the series: requests %d -> %d, burn-rate gauges %d -> %d",
			n, r0, r, b0, b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf(`epi_http_requests_total{workflow="other",priority="normal",code="400"} %d`, n)
	if !strings.Contains(string(metrics), want) {
		t.Fatalf("missing %q in /metrics:\n%s", want, metrics)
	}
}

// TestServerWithoutObsUnchanged pins the nil-ServingObs contract: no
// X-Request-Id header, no debug or SLO routes — the pre-observability
// surface exactly.
func TestServerWithoutObsUnchanged(t *testing.T) {
	ts, _, r := testServer(t, 1, 4)
	r.releaseAll(1)
	resp, _ := postSpec(t, ts, predSpec("VA", 30), "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Fatalf("untraced server set X-Request-Id %q", got)
	}
	for _, path := range []string{"/debug/requests", "/slo"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("%s = %d on untraced server, want 404", path, code)
		}
	}
}
