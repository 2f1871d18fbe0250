package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario/servetest"
)

// TestTimedOutWaiterReleaseCancelsRun is the regression test for the
// interest-leak fix: a synchronous waiter whose context expires still holds
// an interest reference until it Releases; once it does, a running job with
// no other interested party must be cancelled rather than left occupying a
// worker forever.
func TestTimedOutWaiterReleaseCancelsRun(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // running, gated

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait returned %v, want deadline exceeded", err)
	}
	// The waiter walked away: dropping its reference abandons the run.
	j.Release()
	waitState(t, j, StateCanceled)
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned job finished with %v, want canceled", err)
	}
	s.mu.Lock()
	_, still := s.inflight[j.Hash]
	s.mu.Unlock()
	if still {
		t.Fatal("terminal job still in the single-flight table")
	}
}

// TestSharedCountsExact pins the dedup bookkeeping: k extra submitters on a
// live hash leave Status().Shared == k and the deduped counter == k.
func TestSharedCountsExact(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	const k = 5
	for i := 0; i < k; i++ {
		dup, err := submit(s, predSpec("VA", 10))
		if err != nil {
			t.Fatal(err)
		}
		if dup != j {
			t.Fatal("duplicate submission returned a different job")
		}
	}
	if got := j.Status().Shared; got != k {
		t.Fatalf("Shared = %d, want %d", got, k)
	}
	if got := series(t, s, "epi_scenario_deduped_total"); got != k {
		t.Fatalf("deduped counter = %v, want %d", got, k)
	}
	r.releaseAll(1)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k+1; i++ {
		j.Release()
	}
}

// TestDrainGraceReportsStuckRunners drives Drain against a runner that
// ignores cancellation: after the drain context expires and the post-cancel
// grace elapses, Drain must return a *DrainError naming the stuck hashes —
// and keep unwrapping to the context error so existing deadline checks hold.
func TestDrainGraceReportsStuckRunners(t *testing.T) {
	block := make(chan struct{})
	s := NewService(Config{
		Workers: 1, QueueCap: 4, Fingerprint: "test", DrainGrace: 50 * time.Millisecond,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			<-block // deliberately deaf to ctx
			return &Result{}, nil
		},
	})
	defer close(block)
	j, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	waitState(t, j, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	var de *DrainError
	if !errors.As(err, &de) {
		t.Fatalf("Drain returned %v (%T), want *DrainError", err, err)
	}
	if len(de.Running) != 1 || de.Running[0] != j.Hash {
		t.Fatalf("DrainError.Running = %v, want [%s]", de.Running, j.Hash)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DrainError does not unwrap to the drain context error: %v", err)
	}
}

// TestSubmitReleaseCancelChurnRace hammers the single-flight table from many
// goroutines mixing Submit, Wait, Release and Cancel on a handful of hashes
// while an auditor repeatedly asserts the core invariant: the inflight table
// never holds a job in a terminal state. Run under -race it doubles as the
// memory-model check for the queue hardening. Accounting must balance
// exactly: every successful Submit is a cache hit, a fresh submission, or a
// dedup attach.
func TestSubmitReleaseCancelChurnRace(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	s := NewService(Config{
		Workers: 2, QueueCap: 4, Fingerprint: "test", CacheCap: 2,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(100 * time.Microsecond):
				return &Result{}, nil
			}
		},
	})

	stop := make(chan struct{})
	var auditErr atomic.Value
	var auditWG sync.WaitGroup
	auditWG.Add(1)
	go func() {
		defer auditWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			for h, j := range s.inflight {
				j.mu.Lock()
				if j.state != StateQueued && j.state != StateRunning {
					auditErr.Store(fmt.Sprintf("inflight[%s] in terminal state %s", h, j.state))
				}
				j.mu.Unlock()
			}
			s.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				spec := predSpec("VA", 10+rng.Intn(4))
				j, err := submit(s, spec)
				if err != nil {
					if errors.Is(err, ErrQueueFull) {
						rejected.Add(1)
						continue
					}
					auditErr.Store(fmt.Sprintf("submit: %v", err))
					return
				}
				ok.Add(1)
				switch rng.Intn(3) {
				case 0:
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					_, _ = j.Wait(ctx)
					cancel()
				case 1:
					s.Cancel(j.Hash)
				}
				j.Release()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	auditWG.Wait()
	if msg := auditErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	submitted, deduped := series(t, s, "epi_scenario_submitted_total"), series(t, s, "epi_scenario_deduped_total")
	hits := series(t, s, "epi_scenario_cache_hits_total")
	if accounted := submitted + deduped + hits; accounted != float64(ok.Load()) {
		t.Fatalf("accounting drift: submitted %v + deduped %v + cache hits %v = %v, want %d successful submits",
			submitted, deduped, hits, accounted, ok.Load())
	}
	if got := series(t, s, "epi_scenario_rejected_total"); got != float64(rejected.Load()) {
		t.Fatalf("rejected counter %v, want %d", got, rejected.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after churn: %v", err)
	}
	s.mu.Lock()
	n := len(s.inflight)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d jobs left in the single-flight table after drain", n)
	}
	servetest.AssertQuiesced(t, s, goroutinesBefore)
}

// TestServerBackpressureStatusContract pins the HTTP backpressure semantics
// so operators and load balancers can rely on them: queue_full and shed are
// both 429 but carry distinct reasons and Retry-After hints, draining is
// 503, and an unknown priority is the client's fault (400).
func TestServerBackpressureStatusContract(t *testing.T) {
	ts, svc, r := testServer(t, 1, 8)

	decode := func(payload []byte) map[string]string {
		var body map[string]string
		if err := json.Unmarshal(payload, &body); err != nil {
			t.Fatalf("error body not JSON: %v (%s)", err, payload)
		}
		return body
	}

	// Occupy the worker, then fill the queue with normal traffic up to the
	// batch budget (queued >= (cap+1)/2 = 4 sheds batch; normal still in).
	if resp, _ := postSpec(t, ts, predSpec("VA", 10), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	<-r.started
	for i := 0; i < 4; i++ {
		if resp, _ := postSpec(t, ts, predSpec("VA", 11+i), ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d status %d", i, resp.StatusCode)
		}
	}

	// Shed: batch class over budget on a half-full queue.
	resp, payload := postSpec(t, ts, predSpec("VA", 20), "?priority=batch")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch over budget: status %d want 429 (%s)", resp.StatusCode, payload)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("shed Retry-After = %q, want 5", ra)
	}
	if body := decode(payload); body["reason"] != "shed" || body["priority"] != "batch" {
		t.Fatalf("shed body = %v", body)
	}

	// Queue full: interactive bypasses class budgets but not capacity.
	for i := 0; i < 4; i++ {
		if resp, _ := postSpec(t, ts, predSpec("VA", 30+i), "?priority=interactive"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive fill %d status %d", i, resp.StatusCode)
		}
	}
	resp, payload = postSpec(t, ts, predSpec("VA", 40), "?priority=interactive")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hard-full: status %d want 429 (%s)", resp.StatusCode, payload)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("queue_full Retry-After = %q, want 1", ra)
	}
	if body := decode(payload); body["reason"] != "queue_full" {
		t.Fatalf("queue_full body = %v", body)
	}

	// Bad priority is a 400, not a shed.
	if resp, _ := postSpec(t, ts, predSpec("VA", 50), "?priority=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus priority status %d want 400", resp.StatusCode)
	}

	r.releaseAll(9) // 1 running + 4 normal + 4 interactive admitted above
	waitDrained := func() bool {
		q, run := svc.Loads()
		return q == 0 && run == 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for !waitDrained() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Draining: flip the service into shutdown and submit once more.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, payload = postSpec(t, ts, predSpec("VA", 60), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d want 503 (%s)", resp.StatusCode, payload)
	}
	if body := decode(payload); body["reason"] != "draining" {
		t.Fatalf("draining body = %v", body)
	}
}

// TestServerSubmitBodyBounded pins that a submit body is read only up to
// maxSpecBytes: a larger body is refused with 413 before it is decoded in
// full and never reaches admission, while the largest spec Normalize accepts
// is far inside the bound.
func TestServerSubmitBodyBounded(t *testing.T) {
	ts, svc, r := testServer(t, 1, 8)
	t.Cleanup(func() { r.releaseAll(1) })

	big := Spec{Workflow: WorkflowWhatIf, State: "VA", Days: MaxDays, Replicates: MaxReplicates}
	for i := 0; i < MaxConfigs; i++ {
		big.Configs = append(big.Configs, ParamSpec{TAU: 0.2 + float64(i)/1000, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4})
	}
	for i := 0; i < MaxWhatIfs; i++ {
		big.WhatIfs = append(big.WhatIfs, WhatIfSpec{Name: fmt.Sprintf("%064d", i), SHEndShift: -7,
			ComplianceScale: 0.5, AddTesting: 0.1, AddTracing: 3, TraceDetectProb: 0.5})
	}
	body, err := json.MarshalIndent(big, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxSpecBytes/16 {
		t.Fatalf("largest valid spec is %d bytes, too close to the %d-byte bound", len(body), maxSpecBytes)
	}
	resp, err := http.Post(ts.URL+"/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("largest valid spec: status %d want 202", resp.StatusCode)
	}

	// A well-formed spec padded past the bound by a field the decoder
	// ignores: without the bound it would be admitted.
	pad := bytes.Repeat([]byte("x"), maxSpecBytes)
	over := append([]byte(`{"workflow":"prediction","state":"VA","days":10,"pad":"`), pad...)
	over = append(over, `"}`...)
	resp, err = http.Post(ts.URL+"/scenarios", "application/json", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d want 413", resp.StatusCode)
	}
	if got := series(t, svc, "epi_scenario_submitted_total"); got != 1 {
		t.Fatalf("submitted_total %v after the oversized body, want 1", got)
	}
}
