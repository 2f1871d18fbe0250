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

// clusterRunner hands each replica a distinguishable gated runner and
// tracks global execution counts per hash-identity (spec state+days), so
// tests can assert exactly-once execution across the cluster.
type clusterRunner struct {
	mu      sync.Mutex
	runs    map[string]int   // completed executions by spec identity
	started map[string]int   // begun executions by spec identity
	byRep   map[int]int      // begun executions by replica
	gates   []chan struct{}  // per-replica release gates
	live    map[string]int32 // concurrently-running count by spec identity
	overlap atomic.Bool      // any identity ever ran twice at once
	begun   chan string      // announces identity/replica on start
}

func newClusterRunner(replicas int) *clusterRunner {
	cr := &clusterRunner{
		runs: map[string]int{}, started: map[string]int{},
		byRep: map[int]int{}, live: map[string]int32{},
		begun: make(chan string, 1024),
	}
	for i := 0; i < replicas; i++ {
		cr.gates = append(cr.gates, make(chan struct{}, 1024))
	}
	return cr
}

func specIdent(s scenario.Spec) string {
	return fmt.Sprintf("%s/%s/%d/%d", s.Workflow, s.State, s.Days, len(s.WhatIfs))
}

func (cr *clusterRunner) runnerFor(rep int) scenario.Runner {
	return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
		id := specIdent(spec)
		cr.mu.Lock()
		cr.started[id]++
		cr.byRep[rep]++
		cr.live[id]++
		if cr.live[id] > 1 {
			cr.overlap.Store(true)
		}
		cr.mu.Unlock()
		cr.begun <- fmt.Sprintf("%d:%s", rep, id)
		defer func() {
			cr.mu.Lock()
			cr.live[id]--
			cr.mu.Unlock()
		}()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-cr.gates[rep]:
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
}

func (cr *clusterRunner) release(rep, n int) {
	for i := 0; i < n; i++ {
		cr.gates[rep] <- struct{}{}
	}
}

func testCoordinator(t *testing.T, replicas, workers, queueCap int, opts func(*scenario.Config)) (*scenario.Service, *clusterRunner) {
	t.Helper()
	cr := newClusterRunner(replicas)
	cfg := scenario.Config{
		Replicas: replicas, Workers: workers, QueueCap: queueCap, Fingerprint: "test",
		RunnerFor:      cr.runnerFor,
		RebalanceEvery: -1, // tests drive RebalanceOnce explicitly
	}
	if opts != nil {
		opts(&cfg)
	}
	c := scenario.NewService(cfg)
	t.Cleanup(func() {
		for i := range cr.gates {
			cr.release(i, 64)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	})
	return c, cr
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
	c, cr := testCoordinator(t, 2, 1, 8, nil)
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
	cr.release(0, 1)
	cr.release(1, 1)
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
	c, cr := testCoordinator(t, 2, 1, 8, nil)
	h, err := c.SubmitCtx(context.Background(), predSpec("VA", 40), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	cr.release(0, 1)
	cr.release(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	h.Release()

	// The same spec resubmitted is a shared-store hit: served terminal,
	// no new execution anywhere in the cluster.
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
	// One store behind the front door: the result outlives the pool that
	// computed it.
	cr.mu.Lock()
	computedOn := 0
	if cr.byRep[1] > 0 {
		computedOn = 1
	}
	cr.mu.Unlock()
	if !c.KillReplica(computedOn) {
		t.Fatalf("KillReplica(%d) refused", computedOn)
	}
	h3, err := c.SubmitCtx(context.Background(), predSpec("VA", 40), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if st := h3.Status(); st.State != "done" || !st.Cached {
		t.Fatalf("want cached done handle after the kill, got %+v", st)
	}
	cr.mu.Lock()
	started = cr.started[specIdent(mustNormalize(t, predSpec("VA", 40)))]
	cr.mu.Unlock()
	if started != 1 {
		t.Fatalf("result recomputed after the kill: %d executions", started)
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

func TestWorkStealingMovesQueuedJobToIdlePeer(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 8, nil)
	// Occupy both workers, then queue one more job on each replica.
	handles := map[string]*scenario.Job{}
	for i, st := range []string{"VA", "NC", "MD", "GA"} {
		h, err := c.SubmitCtx(context.Background(), predSpec(st, 20), scenario.PriorityNormal)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[st] = h
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
	// Drain replica 1 completely: its running job finishes, then its
	// queued job runs and finishes, leaving it idle while replica 0 still
	// holds a blocked run plus a queued job.
	cr.release(1, 2)
	waitFor(t, "replica 1 idle", func() bool {
		st := c.ReplicaStatus()
		r1 := st.Replicas[1]
		return r1.Queued == 0 && r1.Running == 0
	})
	moved := c.RebalanceOnce()
	if moved != 1 {
		t.Fatalf("RebalanceOnce moved %d jobs, want 1", moved)
	}
	if got := c.ReplicaStatus().Steals; got != 1 {
		t.Fatalf("steals counter = %d, want 1", got)
	}
	// The stolen job now runs on replica 1; release it and its waiter
	// completes even though replica 0 never freed a worker.
	cr.release(1, 1)
	stolenDone := false
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, st := range []string{"MD", "GA"} {
		h := handles[st]
		done := make(chan struct{})
		go func() {
			if _, err := h.Wait(ctx); err == nil {
				close(done)
			}
		}()
		select {
		case <-done:
			stolenDone = true
		case <-time.After(250 * time.Millisecond):
		}
		if stolenDone {
			break
		}
	}
	if !stolenDone {
		t.Fatal("no queued job completed after the steal; waiter lost")
	}
	if cr.overlap.Load() {
		t.Fatal("a spec ran on two replicas concurrently")
	}
	cr.release(0, 4)
	for _, h := range handles {
		h.Release()
	}
}

func whatIfSpec(name string) scenario.Spec {
	return scenario.Spec{
		Workflow: scenario.WorkflowWhatIf, State: "VA", Days: 30,
		WhatIfs: []scenario.WhatIfSpec{{Name: name, SHEndShift: 7}},
	}
}

func TestBatchingMergesNearIdenticalWhatIfs(t *testing.T) {
	c, cr := testCoordinator(t, 2, 2, 8, func(cfg *scenario.Config) {
		cfg.BatchWindow = 30 * time.Millisecond
	})
	h1, err := c.SubmitCtx(context.Background(), whatIfSpec("alpha"), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitCtx(context.Background(), whatIfSpec("beta"), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Status().State != "queued" || h2.Status().State != "queued" {
		t.Fatalf("batched members should report queued, got %s / %s",
			h1.Status().State, h2.Status().State)
	}
	cr.release(0, 4)
	cr.release(1, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Scenarios) != 1 || r1.Scenarios[0].Name != "alpha" {
		t.Fatalf("member 1 got wrong slice: %+v", r1.Scenarios)
	}
	if len(r2.Scenarios) != 1 || r2.Scenarios[0].Name != "beta" {
		t.Fatalf("member 2 got wrong slice: %+v", r2.Scenarios)
	}
	cr.mu.Lock()
	execs := 0
	for id, n := range cr.started {
		if n > 0 && id != "" {
			execs += n
		}
	}
	cr.mu.Unlock()
	if execs != 1 {
		t.Fatalf("want one ensemble execution, got %d", execs)
	}
	st := c.ReplicaStatus()
	if st.BatchExecs != 1 || st.BatchMembs != 2 {
		t.Fatalf("batch counters = %d execs / %d members, want 1 / 2", st.BatchExecs, st.BatchMembs)
	}
	// Member results were published per-member: resubmitting a member spec
	// is a cluster-wide cache hit.
	h3, err := c.SubmitCtx(context.Background(), whatIfSpec("alpha"), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if st := h3.Status(); st.State != "done" || !st.Cached {
		t.Fatalf("member result not in shared store: %+v", st)
	}
	h1.Release()
	h2.Release()
}

func TestCoordinatorAdmissionControl(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 2, nil)
	// Fill both workers, then both queues (aggregate queue capacity 4).
	var handles []*scenario.Job
	for i := 0; i < 2; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("interactive submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	waitFor(t, "both workers busy", func() bool {
		st := c.ReplicaStatus()
		return st.Replicas[0].Running == 1 && st.Replicas[1].Running == 1
	})
	for i := 2; i < 6; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("interactive submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := c.SubmitCtx(context.Background(), predSpec("VA", 90), scenario.PriorityInteractive); !errors.Is(err, scenario.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull at aggregate capacity, got %v", err)
	}
	// At hard-full the saturation signal wins for every class — batch gets
	// queue-full, not a class shed (class sheds require spare capacity).
	if _, err := c.SubmitCtx(context.Background(), predSpec("VA", 91), scenario.PriorityBatch); !errors.Is(err, scenario.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull for batch at hard-full, got %v", err)
	}
	cr.release(0, 8)
	cr.release(1, 8)
	for _, h := range handles {
		h.Release()
	}
}

func TestBatchClassShedsBeforeQueueFull(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 8, nil)
	var handles []*scenario.Job
	// Occupy workers, then push queued depth to half of aggregate capacity.
	for i := 0; i < 2; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityInteractive)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	waitFor(t, "both workers busy", func() bool {
		st := c.ReplicaStatus()
		return st.Replicas[0].Running == 1 && st.Replicas[1].Running == 1
	})
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
	cr.release(0, 16)
	cr.release(1, 16)
	for _, h := range handles {
		h.Release()
	}
}

func TestKillReplicaRequeuesOnPeer(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 8, nil)
	h1, err := c.SubmitCtx(context.Background(), predSpec("VA", 30), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitCtx(context.Background(), predSpec("NC", 30), scenario.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both replicas running", func() bool {
		st := c.ReplicaStatus()
		return st.Replicas[0].Running == 1 && st.Replicas[1].Running == 1
	})
	if !c.KillReplica(0) {
		t.Fatal("KillReplica(0) refused")
	}
	if c.KillReplica(0) {
		t.Fatal("double kill should refuse")
	}
	// Replica 0's job is cancelled by the crash and must reappear on
	// replica 1 — not fail its waiter.
	waitFor(t, "requeue on peer", func() bool {
		return c.ReplicaStatus().Requeues >= 1
	})
	cr.release(1, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h1.Wait(ctx); err != nil {
		t.Fatalf("waiter on killed replica's job lost: %v", err)
	}
	if _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if cr.overlap.Load() {
		t.Fatal("a spec ran on two replicas concurrently")
	}
	h1.Release()
	h2.Release()
}

func TestCoordinatorCancelAndAbandon(t *testing.T) {
	c, cr := testCoordinator(t, 2, 1, 8, nil)
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
		st := c.ReplicaStatus()
		running := 0
		for _, r := range st.Replicas {
			running += r.Running
		}
		return running >= 1
	})
	h2.Release()
	waitFor(t, "abandoned ticket finalized", func() bool {
		st, ok := c.Lookup(h2.Hash)
		return ok && st.Status().State == "canceled"
	})
}
