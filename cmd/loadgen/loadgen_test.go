package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scenario/servetest"
)

// latencyRunner models a fixed service time that honors cancellation — the
// load-proof stand-in for a real workflow execution. Because the cost is
// latency-bound rather than CPU-bound, adding workers must raise sustained
// throughput even on a single-core host.
func latencyRunner(d time.Duration) scenario.Runner {
	return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
			return &scenario.Result{}, nil
		}
	}
}

// TestLoadProof is the deterministic short profile behind `make loadtest`:
// 64 concurrent closed-loop clients against a four-worker front door on
// cache-miss traffic, every request 200, latency percentiles ordered, and
// the loadgen metrics published into a registry.
func TestLoadProof(t *testing.T) {
	const clients, requests = 64, 192
	goroutinesBefore := runtime.NumGoroutine()
	c := scenario.NewService(scenario.Config{
		Workers: 4, QueueCap: 256, Fingerprint: "loadproof",
		Runner: latencyRunner(time.Millisecond),
	})
	ts := httptest.NewServer(scenario.NewServer(c))
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer func() {
		client.CloseIdleConnections()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		servetest.AssertQuiesced(t, c, goroutinesBefore)
	}()

	reg := obs.NewRegistry()
	rep, err := RunLoadgen(LoadgenConfig{
		BaseURL: ts.URL, Clients: clients, Requests: requests,
		Priority: "interactive", Registry: reg, Client: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != requests || rep.Errors != 0 {
		t.Fatalf("ok=%d errors=%d dist=%v, want all %d OK", rep.OK, rep.Errors, rep.StatusDist, requests)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("percentiles out of order: p50=%s p99=%s", rep.P50, rep.P99)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %.2f, want > 0", rep.Throughput)
	}
	// Every request was a distinct spec: the service computed all of them.
	// A loaded machine may shed some submissions (429 → client retry →
	// re-submission of the same spec), so Submitted can legitimately exceed
	// the request count; fewer would mean specs accidentally shared a cache
	// entry.
	if got := c.Registry().Counter("epi_scenario_submitted_total").Value(); got < requests {
		t.Fatalf("service submitted %d, want ≥ %d cache misses", got, requests)
	}
	t.Logf("load proof: p50=%s p99=%s throughput=%.1f req/s", rep.P50, rep.P99, rep.Throughput)
}

// TestTwoClientClosedLoopNeverRefused: two closed-loop clients of unique,
// fast specs against a four-worker front door. At most two jobs are ever in
// the system, so nothing may be refused — every reply is a 200, none a 429
// or a queue-full 500 — and every spec is computed.
func TestTwoClientClosedLoopNeverRefused(t *testing.T) {
	const clients, perClient = 2, 3000
	c := scenario.NewService(scenario.Config{
		Workers: 4, QueueCap: 128, Fingerprint: "closedloop",
		Runner: latencyRunner(100 * time.Microsecond),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	}()
	ts := httptest.NewServer(scenario.NewServer(c))
	defer ts.Close()

	rep, err := RunLoadgen(LoadgenConfig{
		BaseURL: ts.URL, Clients: clients, Requests: clients * perClient,
		SpecFor: func(client, seq int) scenario.Spec {
			s := DefaultSpecFor(client, seq)
			s.Configs[0].TAU = 0.16 + float64(client*perClient+seq)*1e-7 // unique across clients
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != clients*perClient {
		t.Fatalf("ok=%d of %d, status dist %v: a closed loop of %d clients was refused",
			rep.OK, clients*perClient, rep.StatusDist, clients)
	}
	if got := c.Registry().Counter("epi_scenario_submitted_total").Value(); got < clients*perClient {
		t.Fatalf("submitted %d, want ≥ %d unique specs", got, clients*perClient)
	}
}

// TestRunLoadgenFixedSpecHitsCache pins the -fixed profile: one identical
// spec from every client rides the single-flight/cache path, so the
// service runs it at most a handful of times, not once per request.
func TestRunLoadgenFixedSpecHitsCache(t *testing.T) {
	c := scenario.NewService(scenario.Config{
		Workers: 2, QueueCap: 64, Fingerprint: "loadfixed",
		Runner: latencyRunner(time.Millisecond),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	}()
	ts := httptest.NewServer(scenario.NewServer(c))
	defer ts.Close()

	fixed := scenario.Spec{Workflow: scenario.WorkflowPrediction, State: "VA", Days: 30}
	rep, err := RunLoadgen(LoadgenConfig{
		BaseURL: ts.URL, Clients: 16, Requests: 64,
		SpecFor: func(int, int) scenario.Spec { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 64 {
		t.Fatalf("ok=%d dist=%v, want 64", rep.OK, rep.StatusDist)
	}
	if submitted := c.Registry().Counter("epi_scenario_submitted_total").Value(); submitted > 2 {
		t.Fatalf("fixed spec executed %d times, want ≤2 (dedup + result store)", submitted)
	}
}

// TestBackendServerOverCoordinator: the default profile over the HTTP front
// door of a two-worker service — every request a 200, and /readyz reports
// both workers up beside it.
func TestBackendServerOverCoordinator(t *testing.T) {
	c := scenario.NewService(scenario.Config{
		Workers: 2, QueueCap: 16, Fingerprint: "test",
		Runner: latencyRunner(time.Millisecond),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	}()
	srv := httptest.NewServer(scenario.NewServer(c))
	defer srv.Close()

	rep, err := RunLoadgen(LoadgenConfig{
		BaseURL: srv.URL, Clients: 8, Requests: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 16 || rep.Errors != 0 {
		t.Fatalf("loadgen over coordinator: %+v", rep)
	}
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready scenario.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ready.WorkersUp != 2 || ready.WorkersSet != 2 {
		t.Fatalf("/readyz = %d %+v, want 200 with 2 of 2 workers up", resp.StatusCode, ready)
	}
}
