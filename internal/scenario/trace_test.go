package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func viewSpan(v obs.TraceView, name string) *obs.SpanNode {
	if s := findSpan(v.Root, name); s != nil {
		return s
	}
	for _, o := range v.Orphans {
		if s := findSpan(o, name); s != nil {
			return s
		}
	}
	return nil
}

// viewEvents collects every event of one name across the whole tree.
func viewEvents(v obs.TraceView, name string) []obs.EventNode {
	var out []obs.EventNode
	var walk func(*obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n == nil {
			return
		}
		for _, e := range n.Events {
			if e.Name == name {
				out = append(out, e)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(v.Root)
	for _, o := range v.Orphans {
		walk(o)
	}
	return out
}

func getTrace(t *testing.T, base, id string) obs.TraceView {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests/%s: %d", id, resp.StatusCode)
	}
	var v obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func postTraced(t *testing.T, base string, spec Spec, reqID string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/scenarios?wait=1", bytes.NewReader(body))
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

// TestClusterTraceEndToEnd pins the request trace through the front door:
// two what-ifs posted at once to a three-worker service each produce one
// retrievable trace at /debug/requests/{id} carrying the queue wait, the
// job run, the engine span and the fidelity tier decision, and each gets
// its own scenario back.
func TestClusterTraceEndToEnd(t *testing.T) {
	r := newStubRunner()
	r.releaseAll(8)
	c := NewService(Config{Workers: 3, QueueCap: 8, Fingerprint: "test",
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			// Emit the engine-side shape the real pipeline produces: a
			// phase span plus the fidelity router's tier decision event.
			ectx, sp := obs.StartSpan(ctx, "engine.run")
			obs.Event(ectx, "fidelity.route",
				obs.String("tier", "metapop"), obs.String("reason", "stub"),
				obs.Float("uncertainty", 0.01))
			res, err := r.run(ectx, spec)
			sp.End()
			return res, err
		}})
	t.Cleanup(func() { _ = c.Drain(context.Background()) })
	so := NewServingObs(c.Registry(), ServingObsConfig{RecorderCapacity: 64})
	ts := httptest.NewServer(NewServer(c, so))
	t.Cleanup(ts.Close)

	ids := map[string]string{"alpha": "aaaaaaaaaaaaaaaa", "beta": "bbbbbbbbbbbbbbbb"}
	var wg sync.WaitGroup
	var mu sync.Mutex
	results := map[string]*Result{}
	for name, id := range ids {
		wg.Add(1)
		go func(name, id string) {
			defer wg.Done()
			resp, payload := postTraced(t, ts.URL, Spec{
				Workflow: WorkflowWhatIf, State: "VA", Days: 30,
				WhatIfs: []WhatIfSpec{{Name: name, SHEndShift: 7}},
			}, id)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, payload)
				return
			}
			if got := resp.Header.Get("X-Request-Id"); got != id {
				t.Errorf("%s: X-Request-Id echo %q", name, got)
			}
			var res Result
			if err := json.Unmarshal(payload, &res); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			results[name] = &res
			mu.Unlock()
		}(name, id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for name, res := range results {
		if len(res.Scenarios) != 1 || res.Scenarios[0].Name != name {
			t.Fatalf("%s got wrong scenarios: %+v", name, res.Scenarios)
		}
	}

	for name, id := range ids {
		v := getTrace(t, ts.URL, id)
		qs := viewSpan(v, "queue.wait")
		if qs == nil || qs.Attrs["outcome"] != "run" {
			t.Fatalf("%s: queue.wait span %+v, want outcome run", name, qs)
		}
		if viewSpan(v, "job.run") == nil || viewSpan(v, "engine.run") == nil {
			t.Fatalf("%s: trace lacks the job.run or engine.run span", name)
		}
		route := viewEvents(v, "fidelity.route")
		if len(route) != 1 || route[0].Attrs["tier"] != "metapop" {
			t.Fatalf("%s: fidelity.route events %+v", name, route)
		}
	}
}

// TestTracedClusterBitIdentity is the determinism gate for the tracing
// layer: the same workload through a two-worker service produces
// byte-identical results (timing field zeroed) whether serving
// observability is off or on with the flight recorder and request journal
// engaged — tracing reads clocks, never the simulation's RNG.
func TestTracedClusterBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline service in short mode")
	}
	specs := []Spec{
		{
			Workflow: "prediction", State: "RI", Days: 25, Replicates: 2,
			Configs: []ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
		},
		{
			Workflow: "whatif", State: "RI", Days: 20, Replicates: 1,
			Configs: []ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
			WhatIfs: []WhatIfSpec{{Name: "sh-lifted-1w-early", SHEndShift: -7}},
		},
	}
	normalize := func(i int, payload []byte) string {
		var r Result
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			if r.Prediction == nil || len(r.Prediction.Confirmed.Median) != 25 {
				t.Fatalf("prediction result malformed: %+v", r.Prediction)
			}
		case 1:
			if len(r.Scenarios) != 1 {
				t.Fatalf("whatif result malformed: %+v", r.Scenarios)
			}
		}
		r.ElapsedSeconds = 0 // wall time: the only field allowed to differ
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	run := func(traced bool) []string {
		p := core.NewPipeline(77, core.WithScale(40000), core.WithParallelism(2))
		c := NewService(Config{
			Pipeline: p, Workers: 2, QueueCap: 8, CacheCap: 8,
		})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = c.Drain(ctx)
		}()
		var so *ServingObs
		if traced {
			col := obs.NewCollector(nil)
			so = NewServingObs(c.Registry(), ServingObsConfig{
				RecorderCapacity: 16, Journal: col,
			})
		}
		ts := httptest.NewServer(NewServer(c, so))
		defer ts.Close()
		var out []string
		for i, spec := range specs {
			id := ""
			if traced {
				id = obs.NewRequestID()
			}
			resp, payload := postTraced(t, ts.URL, spec, id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("spec %d (traced=%v): %d: %s", i, traced, resp.StatusCode, payload)
			}
			out = append(out, normalize(i, payload))
			if traced {
				v := getTrace(t, ts.URL, id)
				if viewSpan(v, "queue.wait") == nil || viewSpan(v, "job.run") == nil {
					t.Fatalf("spec %d: traced run missing queue.wait/job.run spans", i)
				}
			}
		}
		return out
	}
	plain := run(false)
	traced := run(true)
	for i := range specs {
		if plain[i] != traced[i] {
			t.Errorf("spec %d: traced result differs from untraced:\nuntraced: %.200s\ntraced:   %.200s",
				i, plain[i], traced[i])
		}
	}
}
