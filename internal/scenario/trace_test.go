package scenario_test

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
	"repro/internal/scenario"
)

// findSpan walks a snapshot tree (root + orphans) for a span by name.
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

func postTraced(t *testing.T, base string, spec scenario.Spec, reqID string) (*http.Response, []byte) {
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

// TestClusterTraceEndToEnd is the PR acceptance scenario: a request served
// through a 3-replica coordinator with ensemble batching produces a single
// retrievable trace at /debug/requests/{id} carrying the queue wait, the
// replica dispatch, the batch membership, the fidelity tier decision and
// the engine span. Two batchable what-ifs are posted; both traces see their
// batch membership and slice, and the member whose trace hosts the ensemble
// execution sees the full dispatch/engine path.
func TestClusterTraceEndToEnd(t *testing.T) {
	cr := newClusterRunner(3)
	c, _ := testCoordinator(t, 3, 2, 8, func(cfg *scenario.Config) {
		cfg.BatchWindow = 250 * time.Millisecond
		cfg.RunnerFor = func(rep int) scenario.Runner {
			base := cr.runnerFor(rep)
			return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
				// Emit the engine-side shape the real pipeline produces: a
				// phase span plus the fidelity router's tier decision event.
				ectx, sp := obs.StartSpan(ctx, "engine.run", obs.Int("replica", int64(rep)))
				obs.Event(ectx, "fidelity.route",
					obs.String("tier", "metapop"), obs.String("reason", "stub"),
					obs.Float("uncertainty", 0.01))
				res, err := base(ectx, spec)
				sp.End()
				return res, err
			}
		}
	})
	for i := 0; i < 3; i++ {
		cr.release(i, 8)
	}
	so := scenario.NewServingObs(c.Registry(), scenario.ServingObsConfig{RecorderCapacity: 64})
	ts := httptest.NewServer(scenario.NewServer(c, so))
	t.Cleanup(ts.Close)

	ids := map[string]string{"alpha": "aaaaaaaaaaaaaaaa", "beta": "bbbbbbbbbbbbbbbb"}
	var wg sync.WaitGroup
	var mu sync.Mutex
	results := map[string]*scenario.Result{}
	for name, id := range ids {
		wg.Add(1)
		go func(name, id string) {
			defer wg.Done()
			resp, payload := postTraced(t, ts.URL, whatIfSpec(name), id)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, payload)
				return
			}
			if got := resp.Header.Get("X-Request-Id"); got != id {
				t.Errorf("%s: X-Request-Id echo %q", name, got)
			}
			var res scenario.Result
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
			t.Fatalf("%s got wrong slice: %+v", name, res.Scenarios)
		}
	}

	views := map[string]obs.TraceView{}
	for name, id := range ids {
		views[name] = getTrace(t, ts.URL, id)
	}
	// Every member's trace shows its batch enrollment, membership and the
	// slice it received, all under the same ensemble batch ID.
	batchIDs := map[string]bool{}
	for name, v := range views {
		if len(viewEvents(v, "batch.enroll")) == 0 {
			t.Fatalf("%s: no batch.enroll event", name)
		}
		members := viewEvents(v, "batch.member")
		if len(members) == 0 {
			t.Fatalf("%s: no batch.member event", name)
		}
		if n, ok := members[0].Attrs["members"].(float64); !ok || n != 2 {
			t.Fatalf("%s: batch.member members attr = %v", name, members[0].Attrs)
		}
		batchIDs[members[0].Attrs["batch"].(string)] = true
		if len(viewEvents(v, "batch.slice")) == 0 {
			t.Fatalf("%s: no batch.slice event", name)
		}
	}
	if len(batchIDs) != 1 {
		t.Fatalf("members disagree on the ensemble batch ID: %v", batchIDs)
	}
	// The ensemble reports its execution into one member's trace: that
	// trace carries the full path — queue wait, replica dispatch, engine
	// phase span and the fidelity tier decision.
	full := 0
	for name, v := range views {
		qs := viewSpan(v, "queue.wait")
		dispatch := viewEvents(v, "replica.dispatch")
		engine := viewSpan(v, "engine.run")
		route := viewEvents(v, "fidelity.route")
		if qs == nil || len(dispatch) == 0 || engine == nil || len(route) == 0 {
			continue
		}
		full++
		if qs.Attrs["outcome"] != "run" {
			t.Fatalf("%s: queue.wait outcome %v", name, qs.Attrs)
		}
		if _, ok := dispatch[0].Attrs["replica"].(float64); !ok {
			t.Fatalf("%s: replica.dispatch attrs %v", name, dispatch[0].Attrs)
		}
		if route[0].Attrs["tier"] != "metapop" {
			t.Fatalf("%s: fidelity.route attrs %v", name, route[0].Attrs)
		}
		if viewSpan(v, "job.run") == nil {
			t.Fatalf("%s: no job.run span around the engine span", name)
		}
	}
	if full != 1 {
		t.Fatalf("ensemble execution reported into %d traces, want exactly 1", full)
	}
}

// TestStealHopTraced pins the work-steal hop in the trace: the stolen
// ticket's request trace shows its first queue.wait ending with outcome
// "stolen", the replica.steal event with the donor and receiver, and a
// second queue.wait on the receiving replica ending with outcome "run".
func TestStealHopTraced(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 8, nil)
	traces := map[string]*obs.RequestTrace{}
	handles := map[string]*scenario.Job{}
	for _, st := range []string{"VA", "NC", "MD", "GA"} {
		rt := obs.NewRequestTrace("steal-" + st)
		ctx := rt.Attach(context.Background())
		h, err := c.SubmitCtx(ctx, predSpec(st, 20), scenario.PriorityNormal)
		if err != nil {
			t.Fatalf("submit %s: %v", st, err)
		}
		traces[st], handles[st] = rt, h
	}
	waitFor(t, "two runs started", func() bool {
		cr.mu.Lock()
		defer cr.mu.Unlock()
		n := 0
		for _, v := range cr.started {
			n += v
		}
		return n == 2
	})
	cr.release(1, 2)
	waitFor(t, "replica 1 idle", func() bool {
		st := c.ReplicaStatus()
		return st.Replicas[1].Queued == 0 && st.Replicas[1].Running == 0
	})
	if moved := c.RebalanceOnce(); moved != 1 {
		t.Fatalf("RebalanceOnce moved %d, want 1", moved)
	}
	cr.release(0, 8)
	cr.release(1, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for st, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatalf("wait %s: %v", st, err)
		}
		h.Release()
	}

	stolen := 0
	for st, rt := range traces {
		v := rt.Snapshot()
		steals := viewEvents(v, "replica.steal")
		if len(steals) == 0 {
			continue
		}
		stolen++
		attrs := steals[0].Attrs
		from, fok := attrs["from"].(int64)
		to, tok := attrs["to"].(int64)
		if !fok || !tok || from == to {
			t.Fatalf("%s: replica.steal attrs %v", st, attrs)
		}
		// Two queue hops: the donor's wait ended "stolen", the receiver's
		// ended "run".
		outcomes := map[any]int{}
		var collect func(n *obs.SpanNode)
		collect = func(n *obs.SpanNode) {
			if n == nil {
				return
			}
			if n.Name == "queue.wait" {
				outcomes[n.Attrs["outcome"]]++
			}
			for _, c := range n.Children {
				collect(c)
			}
		}
		collect(v.Root)
		for _, o := range v.Orphans {
			collect(o)
		}
		if outcomes["stolen"] != 1 || outcomes["run"] != 1 {
			t.Fatalf("%s: queue.wait outcomes %v, want one stolen + one run", st, outcomes)
		}
	}
	if stolen != 1 {
		t.Fatalf("replica.steal appeared in %d traces, want exactly 1", stolen)
	}
}

// TestDeathRequeueTraced pins the death-requeue hop in the trace: when the
// replica running a traced job dies, the job's request trace records the
// replica.requeue event and a second replica.dispatch onto the surviving
// peer, with both queue waits ending in "run".
func TestDeathRequeueTraced(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 8, nil)
	rt := obs.NewRequestTrace("requeue-victim")
	h, err := c.SubmitCtx(rt.Attach(context.Background()), predSpec("VA", 20), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	begun := <-cr.begun // "rep:ident" — learn which replica holds the job
	victim := int(begun[0] - '0')
	if !c.KillReplica(victim) {
		t.Fatalf("KillReplica(%d) refused", victim)
	}
	peer := 1 - victim
	cr.release(peer, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatalf("waiter lost across the requeue: %v", err)
	}

	v := rt.Snapshot()
	requeues := viewEvents(v, "replica.requeue")
	if len(requeues) != 1 {
		t.Fatalf("replica.requeue events = %d, want 1", len(requeues))
	}
	if from, ok := requeues[0].Attrs["from"].(int64); !ok || from != int64(victim) {
		t.Fatalf("replica.requeue attrs %v, want from=%d", requeues[0].Attrs, victim)
	}
	dispatches := viewEvents(v, "replica.dispatch")
	if len(dispatches) != 2 {
		t.Fatalf("replica.dispatch events = %d, want 2 (original + post-requeue)", len(dispatches))
	}
	if to, ok := dispatches[1].Attrs["replica"].(int64); !ok || to != int64(peer) {
		t.Fatalf("post-requeue dispatch attrs %v, want replica=%d", dispatches[1].Attrs, peer)
	}
}

// TestTracedClusterBitIdentity is the determinism gate for the tracing
// layer: the same workload through a 2-replica coordinator produces
// byte-identical results (timing field zeroed) whether serving
// observability is off or on with the flight recorder and request journal
// engaged — tracing reads clocks, never the simulation's RNG.
func TestTracedClusterBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline cluster in short mode")
	}
	specs := []scenario.Spec{
		{
			Workflow: "prediction", State: "RI", Days: 25, Replicates: 2,
			Configs: []scenario.ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
		},
		{
			Workflow: "whatif", State: "RI", Days: 20, Replicates: 1,
			Configs: []scenario.ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
			WhatIfs: []scenario.WhatIfSpec{{Name: "sh-lifted-1w-early", SHEndShift: -7}},
		},
	}
	normalize := func(i int, payload []byte) string {
		var r scenario.Result
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
		c := scenario.NewService(scenario.Config{
			Replicas: 2, Pipeline: p, Workers: 1, QueueCap: 8, CacheCap: 8,
		})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = c.Drain(ctx)
		}()
		var so *scenario.ServingObs
		if traced {
			col := obs.NewCollector(nil)
			so = scenario.NewServingObs(c.Registry(), scenario.ServingObsConfig{
				RecorderCapacity: 16, Journal: col,
			})
		}
		ts := httptest.NewServer(scenario.NewServer(c, so))
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
