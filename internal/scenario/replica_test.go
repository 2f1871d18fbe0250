package scenario_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// clusterRunner is a gated runner that tracks execution counts per spec
// identity (workflow, state, days, what-if count), so tests can assert
// exactly-once execution behind the front door.
type clusterRunner struct {
	mu      sync.Mutex
	runs    map[string]int   // completed executions by spec identity
	started map[string]int   // begun executions by spec identity
	gate    chan struct{}    // each receive releases one run
	live    map[string]int32 // concurrently-running count by spec identity
	overlap atomic.Bool      // any identity ever ran twice at once
}

func newClusterRunner() *clusterRunner {
	return &clusterRunner{
		runs: map[string]int{}, started: map[string]int{}, live: map[string]int32{},
		gate: make(chan struct{}, 1024),
	}
}

func specIdent(s scenario.Spec) string {
	return fmt.Sprintf("%s/%s/%d/%d", s.Workflow, s.State, s.Days, len(s.WhatIfs))
}

func (cr *clusterRunner) run(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
	id := specIdent(spec)
	cr.mu.Lock()
	cr.started[id]++
	cr.live[id]++
	if cr.live[id] > 1 {
		cr.overlap.Store(true)
	}
	cr.mu.Unlock()
	defer func() {
		cr.mu.Lock()
		cr.live[id]--
		cr.mu.Unlock()
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-cr.gate:
	}
	cr.mu.Lock()
	cr.runs[id]++
	cr.mu.Unlock()
	res := &scenario.Result{}
	for _, w := range spec.WhatIfs {
		res.Scenarios = append(res.Scenarios, scenario.ScenarioResult{Name: w.Name})
	}
	return res, nil
}

func (cr *clusterRunner) release(n int) {
	for i := 0; i < n; i++ {
		cr.gate <- struct{}{}
	}
}

func testCoordinator(t *testing.T, workers, queueCap int, opts func(*scenario.Config)) (*scenario.Service, *clusterRunner) {
	t.Helper()
	cr := newClusterRunner()
	cfg := scenario.Config{
		Workers: workers, QueueCap: queueCap, Fingerprint: "test", Runner: cr.run,
	}
	if opts != nil {
		opts(&cfg)
	}
	c := scenario.NewService(cfg)
	t.Cleanup(func() {
		cr.release(64)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	})
	return c, cr
}

// waitRunning polls until n jobs occupy a worker.
func waitRunning(t *testing.T, c *scenario.Service, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d runs on a worker", n), func() bool {
		_, running := c.Loads()
		return running == n
	})
}

// isCancel classifies context-style cancellation errors.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func predSpec(state string, days int) scenario.Spec {
	return scenario.Spec{Workflow: scenario.WorkflowPrediction, State: state, Days: days}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCoordinatorSingleFlightAcrossFrontDoor(t *testing.T) {
	c, cr := testCoordinator(t, 2, 8, nil)
	h1, err := c.SubmitCtx(context.Background(), predSpec("VA", 30), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitCtx(context.Background(), predSpec("va", 30), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Hash != h2.Hash {
		t.Fatalf("same spec got different IDs: %s vs %s", h1.Hash, h2.Hash)
	}
	if got := h2.Status().Shared; got != 1 {
		t.Fatalf("want Shared=1 on the attached handle, got %d", got)
	}
	cr.release(2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cr.mu.Lock()
	total := 0
	for _, n := range cr.started {
		total += n
	}
	cr.mu.Unlock()
	if total != 1 {
		t.Fatalf("want exactly one execution, got %d", total)
	}
	h1.Release()
	h2.Release()
}

func TestSharedStoreServesPeerResults(t *testing.T) {
	c, cr := testCoordinator(t, 2, 8, nil)
	h, err := c.SubmitCtx(context.Background(), predSpec("VA", 40), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	cr.release(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	h.Release()

	// The same spec resubmitted is a store hit: served terminal, no new
	// execution on any worker.
	h2, err := c.SubmitCtx(context.Background(), predSpec("VA", 40), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	st := h2.Status()
	if st.State != "done" || !st.Cached {
		t.Fatalf("want cached done handle, got %+v", st)
	}
	cr.mu.Lock()
	started := cr.started[specIdent(mustNormalize(t, predSpec("VA", 40)))]
	cr.mu.Unlock()
	if started != 1 {
		t.Fatalf("peer-cached result recomputed: %d executions", started)
	}
}

func mustNormalize(t *testing.T, s scenario.Spec) scenario.Spec {
	t.Helper()
	ns, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func whatIfSpec(name string) scenario.Spec {
	return scenario.Spec{
		Workflow: scenario.WorkflowWhatIf, State: "VA", Days: 30,
		WhatIfs: []scenario.WhatIfSpec{{Name: name, SHEndShift: 7}},
	}
}

func TestCoordinatorAdmissionControl(t *testing.T) {
	c, cr := testCoordinator(t, 2, 4, nil)
	// Fill both workers, then the queue (capacity 4).
	var handles []*scenario.Job
	for i := 0; i < 2; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("interactive submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	waitRunning(t, c, 2)
	for i := 2; i < 6; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("interactive submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := c.SubmitCtx(context.Background(), predSpec("VA", 90), scenario.PriorityInteractive); !errors.Is(err, scenario.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull at capacity, got %v", err)
	}
	// At hard-full the saturation signal wins for every class — batch gets
	// queue-full, not a class shed (class sheds require spare capacity).
	if _, err := c.SubmitCtx(context.Background(), predSpec("VA", 91), scenario.PriorityBatch); !errors.Is(err, scenario.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull for batch at hard-full, got %v", err)
	}
	cr.release(16)
	for _, h := range handles {
		h.Release()
	}
}

func TestBatchClassShedsBeforeQueueFull(t *testing.T) {
	c, cr := testCoordinator(t, 2, 16, nil)
	var handles []*scenario.Job
	// Occupy workers, then push queued depth to half of capacity.
	for i := 0; i < 2; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	waitRunning(t, c, 2)
	for i := 2; i < 10; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	var shed *scenario.ShedError
	if _, err := c.SubmitCtx(context.Background(), predSpec("VA", 80), scenario.PriorityBatch); !errors.As(err, &shed) {
		t.Fatalf("want batch shed at half queue, got %v", err)
	}
	if _, err := c.SubmitCtx(context.Background(), predSpec("VA", 81), scenario.PriorityNormal); err != nil {
		t.Fatalf("normal class should still admit: %v", err)
	}
	cr.release(32)
	for _, h := range handles {
		h.Release()
	}
}

func TestCoordinatorCancelAndAbandon(t *testing.T) {
	c, cr := testCoordinator(t, 2, 8, nil)
	h, err := c.SubmitCtx(context.Background(), predSpec("VA", 30), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "run started", func() bool {
		cr.mu.Lock()
		defer cr.mu.Unlock()
		return len(cr.started) > 0
	})
	if !c.Cancel(h.Hash) {
		t.Fatal("Cancel refused a running ticket")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); !isCancel(err) {
		t.Fatalf("want cancellation, got %v", err)
	}
	// Abandonment: a waiter that releases its only interest cancels the run.
	h2, err := c.SubmitCtx(context.Background(), predSpec("NC", 30), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second run started", func() bool {
		_, running := c.Loads()
		return running >= 1
	})
	h2.Release()
	waitFor(t, "abandoned ticket finalized", func() bool {
		st, ok := c.Lookup(h2.Hash)
		return ok && st.Status().State == "canceled"
	})
}
