package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func testServer(t *testing.T, workers, queueCap int) (*httptest.Server, *Service, *stubRunner) {
	t.Helper()
	svc, r := stubService(t, workers, queueCap)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	return ts, svc, r
}

func postSpec(t *testing.T, ts *httptest.Server, spec Spec, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/scenarios"+query, "application/json", bytes.NewReader(body))
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

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServerEndToEnd is the acceptance scenario: two identical and one
// distinct submission race concurrently and produce exactly two pipeline
// executions (single-flight verified), a resubmission is served from the
// cache without a third execution, and /metrics reflects all of it.
func TestServerEndToEnd(t *testing.T) {
	ts, svc, r := testServer(t, 2, 8)

	specA := Spec{Workflow: "prediction", State: "VA", Days: 42}
	specB := Spec{Workflow: "prediction", State: "RI", Days: 42}

	var wg sync.WaitGroup
	status := make([]int, 3)
	results := make([]Result, 3)
	for i, spec := range []Spec{specA, specA, specB} {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			resp, payload := postSpec(t, ts, spec, "?wait=1")
			status[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(payload, &results[i]); err != nil {
					t.Errorf("result %d: %v (%s)", i, err, payload)
				}
			}
		}(i, spec)
	}
	// Exactly two distinct specs reach the workers; release them once both
	// are blocked inside the runner.
	for i := 0; i < 2; i++ {
		select {
		case <-r.started:
		case <-time.After(5 * time.Second):
			t.Fatal("runs did not start")
		}
	}
	// The duplicate must attach while its twin is still in flight; released
	// earlier, it would find the finished result in the cache instead.
	for deadline := time.Now().Add(5 * time.Second); series(t, svc, "epi_scenario_deduped_total") < 1; {
		if time.Now().After(deadline) {
			t.Fatal("duplicate submission did not attach")
		}
		time.Sleep(time.Millisecond)
	}
	r.releaseAll(2)
	wg.Wait()

	for i, st := range status {
		if st != http.StatusOK {
			t.Fatalf("request %d status %d want 200", i, st)
		}
	}
	if got := r.runs.Load(); got != 2 {
		t.Fatalf("%d executions want exactly 2 (singleflight)", got)
	}
	if results[0].Hash != results[1].Hash || results[0].Hash == results[2].Hash {
		t.Fatalf("hashes wrong: %s %s %s", results[0].Hash, results[1].Hash, results[2].Hash)
	}

	// Resubmission of specA is a cache hit: still two executions.
	resp, payload := postSpec(t, ts, specA, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit status %d: %s", resp.StatusCode, payload)
	}
	if got := r.runs.Load(); got != 2 {
		t.Fatalf("%d executions after cached resubmit want 2", got)
	}

	// GET result by content address.
	var fetched Result
	if code := getJSON(t, ts.URL+"/scenarios/"+results[0].Hash+"/result", &fetched); code != http.StatusOK {
		t.Fatalf("result fetch status %d", code)
	}
	if fetched.Hash != results[0].Hash {
		t.Fatalf("fetched hash %s want %s", fetched.Hash, results[0].Hash)
	}

	// /metrics reflects the whole story.
	if got := series(t, svc, "epi_scenario_submitted_total"); got != 2 {
		t.Fatalf("submitted %v want 2", got)
	}
	if got := series(t, svc, "epi_scenario_deduped_total"); got != 1 {
		t.Fatalf("deduped %v want 1 (second identical submission attached)", got)
	}
	if got := series(t, svc, `epi_scenario_jobs_total{state="done"}`); got != 2 {
		t.Fatalf("done %v want 2", got)
	}
	hits, misses := series(t, svc, "epi_scenario_cache_hits_total"), series(t, svc, "epi_scenario_cache_misses_total")
	if hits < 1 || misses != 2 {
		t.Fatalf("cache hits/misses %v/%v want ≥1/2", hits, misses)
	}
	if got := series(t, svc, `epi_scenario_latency_seconds_count{workflow="prediction"}`); got != 2 {
		t.Fatalf("latency count %v want 2", got)
	}
}

// TestServerQueueFull429 verifies admission control: when the worker pool
// and the bounded queue are saturated, a further distinct submission sheds
// with 429 and the rejection lands in /metrics.
func TestServerQueueFull429(t *testing.T) {
	ts, svc, r := testServer(t, 1, 1)
	// Saturate: one running (blocked in the runner) + one queued.
	if resp, payload := postSpec(t, ts, Spec{Workflow: "prediction", State: "VA", Days: 10}, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 status %d: %s", resp.StatusCode, payload)
	}
	<-r.started
	if resp, _ := postSpec(t, ts, Spec{Workflow: "prediction", State: "VA", Days: 11}, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 status %d", resp.StatusCode)
	}
	resp, payload := postSpec(t, ts, Spec{Workflow: "prediction", State: "VA", Days: 12}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status %d want 429: %s", resp.StatusCode, payload)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := series(t, svc, "epi_scenario_rejected_total"); got != 1 {
		t.Fatalf("rejected %v want 1", got)
	}
	if depth, running := series(t, svc, "epi_scenario_queue_depth"), series(t, svc, "epi_scenario_inflight_jobs"); depth != 1 || running != 1 {
		t.Fatalf("queue depth %v / running %v want 1/1", depth, running)
	}
	r.releaseAll(2)
}

// TestServerDisconnectCancelsJob verifies cancellation plumbing end to end:
// a synchronous submitter that disconnects drops the job's last interest
// reference, the context is cancelled through the pipeline layer, and the
// job lands in the canceled state.
func TestServerDisconnectCancelsJob(t *testing.T) {
	ts, svc, r := testServer(t, 1, 4)
	spec := Spec{Workflow: "prediction", State: "VA", Days: 33}
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := ns.Hash("test")
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(spec)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/scenarios?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-r.started // job is running, blocked in the runner
	cancel()    // client disconnects
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := svc.Lookup(hash); ok && j.Status().State == "canceled" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	j, ok := svc.Lookup(hash)
	if !ok || j.Status().State != "canceled" {
		t.Fatalf("job after disconnect: ok=%v status=%+v", ok, j.Status())
	}
	if got := series(t, svc, `epi_scenario_jobs_total{state="canceled"}`); got != 1 {
		t.Fatalf("canceled %v want 1", got)
	}
	// The job never completed: no result, and polling reports canceled.
	code := getJSON(t, ts.URL+"/scenarios/"+hash+"/result", nil)
	if code != http.StatusConflict {
		t.Fatalf("result of canceled job status %d want 409", code)
	}
}

func TestServerStatusAndCancelEndpoints(t *testing.T) {
	ts, _, r := testServer(t, 1, 4)
	resp, payload := postSpec(t, ts, Spec{Workflow: "prediction", State: "VA", Days: 21}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	<-r.started

	// Poll while running.
	var polled JobStatus
	if code := getJSON(t, ts.URL+"/scenarios/"+st.ID, &polled); code != http.StatusOK {
		t.Fatalf("status poll %d", code)
	}
	if polled.State != "running" {
		t.Fatalf("state %s want running", polled.State)
	}
	// Result before completion → 202 with status payload.
	if code := getJSON(t, ts.URL+"/scenarios/"+st.ID+"/result", nil); code != http.StatusAccepted {
		t.Fatalf("early result %d want 202", code)
	}

	// DELETE cancels the pinned job.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/scenarios/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if code := getJSON(t, ts.URL+"/scenarios/"+st.ID+"/result", nil); code == http.StatusConflict {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Unknown IDs 404 on all job routes.
	if code := getJSON(t, ts.URL+"/scenarios/doesnotexist", nil); code != http.StatusNotFound {
		t.Fatalf("unknown status %d want 404", code)
	}
	if code := getJSON(t, ts.URL+"/scenarios/doesnotexist/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown result %d want 404", code)
	}

	// Bad specs 400.
	if resp, _ := postSpec(t, ts, Spec{Workflow: "bogus"}, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d want 400", resp.StatusCode)
	}
}

// TestServerSubmitBodies pins how a submit body is decoded: the spec must be
// the whole body, up to trailing whitespace.
func TestServerSubmitBodies(t *testing.T) {
	ts, _, r := testServer(t, 1, 8)
	t.Cleanup(func() { r.releaseAll(8) })
	const spec = `{"workflow":"prediction","state":"VA","days":10}`
	for _, tc := range []struct {
		name, body string
		code       int
		errPrefix  string
	}{
		{"not json", `{not json`, http.StatusBadRequest, "bad spec JSON: "},
		{"trailing bytes", spec + ` trailing`, http.StatusBadRequest, "bad spec JSON: trailing data"},
		{"second object", spec + `{"workflow":"night"}`, http.StatusBadRequest, "bad spec JSON: trailing data"},
		{"trailing whitespace", spec + " \n\t\r\n", http.StatusAccepted, ""},
	} {
		resp, err := http.Post(ts.URL+"/scenarios", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reply is not JSON: %v", tc.name, err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d want %d (%v)", tc.name, resp.StatusCode, tc.code, body)
		}
		if msg, _ := body["error"].(string); !strings.HasPrefix(msg, tc.errPrefix) {
			t.Errorf("%s: error %q want prefix %q", tc.name, msg, tc.errPrefix)
		}
	}
}

func TestServerHealthzAndDraining(t *testing.T) {
	svc, _ := stubService(t, 1, 2)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz %d want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d want 503", code)
	}
	resp, _ := postSpec(t, ts, Spec{Workflow: "prediction", State: "VA"}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining %d want 503", resp.StatusCode)
	}
}

// TestServerRealPipeline runs the service over a real core.Pipeline: one
// prediction, one what-if and one night scenario end to end through HTTP,
// with the prediction resubmitted to verify the cached result is served
// byte-identical (determinism makes caching sound).
func TestServerRealPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline service in short mode")
	}
	p := core.NewPipeline(77, core.WithScale(40000), core.WithParallelism(2))
	svc := NewService(Config{Pipeline: p, Workers: 2, QueueCap: 8, CacheCap: 8})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)

	pred := Spec{
		Workflow: "prediction", State: "RI", Days: 30, Replicates: 2,
		Configs: []ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
	}
	resp, payload := postSpec(t, ts, pred, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prediction status %d: %s", resp.StatusCode, payload)
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if res.Prediction == nil || len(res.Prediction.Confirmed.Median) != 30 {
		t.Fatalf("prediction result malformed: %+v", res.Prediction)
	}
	if res.Prediction.Confirmed.Median[29] <= 0 {
		t.Fatal("no predicted cases")
	}
	net, err := p.Network("RI")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(net.Counties().FIPS); res.Prediction.Counties != n || n == 0 {
		t.Fatalf("served counties %d, the pipeline's RI network holds %d", res.Prediction.Counties, n)
	}

	// Cached resubmit returns the identical payload.
	resp2, payload2 := postSpec(t, ts, pred, "?wait=1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached status %d", resp2.StatusCode)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("cached result differs from computed result")
	}

	whatif := Spec{
		Workflow: "whatif", State: "RI", Days: 25, Replicates: 1,
		Configs: []ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
		WhatIfs: []WhatIfSpec{{Name: "sh-lifted-1w-early", SHEndShift: -7}},
	}
	resp, payload = postSpec(t, ts, whatif, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif status %d: %s", resp.StatusCode, payload)
	}
	var wres Result
	if err := json.Unmarshal(payload, &wres); err != nil {
		t.Fatal(err)
	}
	if len(wres.Scenarios) != 1 || wres.Scenarios[0].Name != "sh-lifted-1w-early" {
		t.Fatalf("whatif result malformed: %+v", wres.Scenarios)
	}
	if len(wres.Scenarios[0].Confirmed.Median) != 25 {
		t.Fatalf("whatif horizon %d want 25", len(wres.Scenarios[0].Confirmed.Median))
	}

	night := Spec{Workflow: "night", Night: &NightSpec{Family: "prediction", Cells: 4, Replicates: 3}}
	resp, payload = postSpec(t, ts, night, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("night status %d: %s", resp.StatusCode, payload)
	}
	var nres Result
	if err := json.Unmarshal(payload, &nres); err != nil {
		t.Fatal(err)
	}
	if nres.Night == nil || nres.Night.Tasks == 0 || nres.Night.Makespan <= 0 {
		t.Fatalf("night result malformed: %+v", nres.Night)
	}

	if got := series(t, svc, `epi_scenario_jobs_total{state="done"}`); got != 3 {
		t.Fatalf("done %v want 3", got)
	}
	for _, wf := range []string{WorkflowPrediction, WorkflowWhatIf, WorkflowNight} {
		if got := series(t, svc, `epi_scenario_latency_seconds_count{workflow="`+wf+`"}`); got != 1 {
			t.Fatalf("latency[%s] count %v want 1", wf, got)
		}
	}
}

// TestServerMetricsPrometheus verifies /metrics serves the one registry in
// Prometheus text exposition, with the queue's bound and worker count, and
// no per-pool series.
func TestServerMetricsPrometheus(t *testing.T) {
	svc := NewService(Config{Workers: 2, QueueCap: 4, Runner: newStubRunner().run, Fingerprint: "test"})
	t.Cleanup(func() { _ = svc.Drain(context.Background()) })
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE epi_scenario_queue_capacity gauge",
		"epi_scenario_queue_capacity 4",
		"# TYPE epi_scenario_workers gauge",
		"epi_scenario_workers 2",
		"# TYPE epi_scenario_submitted_total counter",
		"epi_scenario_cache_capacity",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	if strings.Contains(text, "epi_replica_") {
		t.Fatalf("per-pool series exposed:\n%s", text)
	}
}

// TestServerMetricsRuntime: with the runtime series registered, a scrape of
// /metrics shows the live heap, mapped memory, GC cycles, goroutines and
// the build info, each positive once a GC cycle has completed.
func TestServerMetricsRuntime(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	svc := NewService(Config{Workers: 1, QueueCap: 1, Runner: newStubRunner().run, Fingerprint: "test", Registry: reg})
	t.Cleanup(func() { _ = svc.Drain(context.Background()) })
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	runtime.GC()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %q has value %q", name, val)
		}
		values[name] = v
	}
	for _, name := range []string{
		"epi_go_heap_live_bytes", "epi_go_memory_total_bytes", "epi_go_gc_cycles_total", "epi_go_goroutines",
		`epi_build_info{go_version="` + runtime.Version() + `"}`,
	} {
		if values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, values[name])
		}
	}
}
