package scenario

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner counts executions and blocks each run on a gate until released
// or the run's context is cancelled.
type stubRunner struct {
	runs    atomic.Int64
	started chan string   // receives the spec's state+workflow when a run begins
	gate    chan struct{} // each receive releases one run
}

func newStubRunner() *stubRunner {
	return &stubRunner{started: make(chan string, 64), gate: make(chan struct{}, 64)}
}

func (r *stubRunner) run(ctx context.Context, spec Spec) (*Result, error) {
	r.runs.Add(1)
	r.started <- spec.Workflow + "/" + spec.State
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.gate:
		return &Result{}, nil
	}
}

// releaseAll opens the gate for n runs.
func (r *stubRunner) releaseAll(n int) {
	for i := 0; i < n; i++ {
		r.gate <- struct{}{}
	}
}

func stubService(t *testing.T, workers, queueCap int) (*Service, *stubRunner) {
	t.Helper()
	r := newStubRunner()
	s := NewService(Config{Workers: workers, QueueCap: queueCap, Runner: r.run, Fingerprint: "test"})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, r
}

// series reads one series' value from the service's Prometheus exposition —
// the same text GET /metrics serves.
func series(t *testing.T, s *Service, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not exposed", name)
	return 0
}

// submit is SubmitCtx at normal priority with no request trace.
func submit(s *Service, spec Spec) (*Job, error) {
	return s.SubmitCtx(context.Background(), spec, PriorityNormal)
}

func predSpec(state string, days int) Spec {
	return Spec{Workflow: WorkflowPrediction, State: state, Days: days}
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == want.String() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.Hash, j.Status().State, want)
}

func TestSubmitValidationErrors(t *testing.T) {
	s, _ := stubService(t, 1, 4)
	var bad *BadSpecError
	if _, err := submit(s, Spec{Workflow: "bogus"}); !errors.As(err, &bad) {
		t.Fatalf("want BadSpecError, got %v", err)
	}
	if _, err := submit(s, predSpec("ZZ", 10)); !errors.As(err, &bad) {
		t.Fatalf("want BadSpecError for bad state, got %v", err)
	}
}

func TestSingleflightSharesOneRun(t *testing.T) {
	s, r := stubService(t, 2, 8)
	j1, err := submit(s, predSpec("VA", 30))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // running and blocked on the gate
	j2, err := submit(s, predSpec("va", 30))
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight specs did not share a job")
	}
	if got := j2.Status().Shared; got != 1 {
		t.Fatalf("shared %d want 1", got)
	}
	r.releaseAll(1)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1", got)
	}
}

func TestCacheHitSkipsQueue(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, err := submit(s, predSpec("VA", 20))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	r.releaseAll(1)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	j2, err := submit(s, predSpec("VA", 20))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != "done" || !st.Cached {
		t.Fatalf("resubmit not served from cache: %+v", st)
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1 (second served from cache)", got)
	}
	res, err := j2.Wait(context.Background())
	if err != nil || res == nil {
		t.Fatalf("cached job result: %v %v", res, err)
	}
	if res.Hash != j.Hash {
		t.Fatalf("cached hash %s want %s", res.Hash, j.Hash)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, r := stubService(t, 1, 1)
	// One running (blocked on the gate) + one queued fills the service.
	j1, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	if _, err := submit(s, predSpec("VA", 11)); err != nil {
		t.Fatal(err)
	}
	_, err = submit(s, predSpec("VA", 12))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := series(t, s, "epi_scenario_rejected_total"); got != 1 {
		t.Fatalf("rejected %v want 1", got)
	}
	// Deduplication onto the running job still succeeds under a full queue.
	if _, err := submit(s, predSpec("VA", 10)); err != nil {
		t.Fatalf("singleflight attach rejected: %v", err)
	}
	j1.Release() // drop the extra attach reference
	r.releaseAll(2)
}

func TestReleaseCancelsAbandonedJobs(t *testing.T) {
	s, r := stubService(t, 1, 4)
	running, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	queued, err := submit(s, predSpec("VA", 11))
	if err != nil {
		t.Fatal(err)
	}
	// Abandoning a queued job cancels it synchronously — no worker time.
	queued.Release()
	if st := queued.Status().State; st != "canceled" {
		t.Fatalf("abandoned queued job state %s want canceled", st)
	}
	// Abandoning a running job cancels its context; the runner unwinds.
	running.Release()
	waitState(t, running, StateCanceled)
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1 (queued job never ran)", got)
	}
	if got := series(t, s, `epi_scenario_jobs_total{state="canceled"}`); got != 2 {
		t.Fatalf("canceled count %v want 2", got)
	}
}

func TestPinnedJobSurvivesRelease(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	j.Pin()
	j.Release()
	<-r.started
	if st := j.Status().State; st != "running" {
		t.Fatalf("pinned job state %s want running", st)
	}
	r.releaseAll(1)
	waitState(t, j, StateDone)
}

func TestExplicitCancel(t *testing.T) {
	s, r := stubService(t, 1, 4)
	running, _ := submit(s, predSpec("VA", 10))
	running.Pin()
	running.Release()
	<-r.started
	queued, _ := submit(s, predSpec("VA", 11))
	queued.Pin()
	queued.Release()

	if !s.Cancel(queued.Hash) {
		t.Fatal("cancel queued failed")
	}
	if st := queued.Status().State; st != "canceled" {
		t.Fatalf("queued job state %s want canceled", st)
	}
	if !s.Cancel(running.Hash) {
		t.Fatal("cancel running failed")
	}
	waitState(t, running, StateCanceled)
	if s.Cancel(running.Hash) {
		t.Fatal("cancel of finished job reported success")
	}
	if s.Cancel("no-such-id") {
		t.Fatal("cancel of unknown id reported success")
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1", got)
	}
}

func TestLookupFindsTerminalAndCachedJobs(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, _ := submit(s, predSpec("VA", 10))
	<-r.started
	r.releaseAll(1)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(j.Hash)
	if !ok || got.Status().State != "done" {
		t.Fatalf("lookup after completion: ok=%v", ok)
	}
	if _, ok := s.Lookup("absent"); ok {
		t.Fatal("lookup of unknown id succeeded")
	}
}

func TestDrainRunsQueuedJobsThenRejects(t *testing.T) {
	r := newStubRunner()
	s := NewService(Config{Workers: 1, QueueCap: 8, Runner: r.run, Fingerprint: "test"})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := submit(s, predSpec("VA", 10+i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	r.releaseAll(3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range jobs {
		if st := j.Status().State; st != "done" {
			t.Fatalf("job %d state %s want done after drain", i, st)
		}
	}
	if _, err := submit(s, predSpec("VA", 99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	r := newStubRunner()
	s := NewService(Config{Workers: 1, QueueCap: 4, Runner: r.run, Fingerprint: "test"})
	j, err := submit(s, predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // runner blocked, never released
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v want deadline exceeded", err)
	}
	if st := j.Status().State; st != "canceled" {
		t.Fatalf("straggler state %s want canceled", st)
	}
}

func TestRecentEvictionKeepsRegistryBounded(t *testing.T) {
	s, r := stubService(t, 1, 4)
	go func() {
		for {
			if _, ok := <-r.started; !ok {
				return
			}
			r.gate <- struct{}{}
		}
	}()
	var last *Job
	for i := 0; i < recentCap+10; i++ {
		j, err := submit(s, predSpec("VA", (i%300)+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	s.mu.Lock()
	regSize, recSize := len(s.registry), len(s.recent)
	s.mu.Unlock()
	if recSize > recentCap || regSize > recentCap+1 {
		t.Fatalf("registry/recent grew unbounded: %d/%d", regSize, recSize)
	}
	if _, ok := s.Lookup(last.Hash); !ok {
		t.Fatal("most recent job evicted")
	}
	close(r.started)
}

func waitLoads(t *testing.T, s *Service, queued, running int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		q, r := s.Loads()
		if q == queued && r == running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("loads %d queued / %d running, want %d / %d", q, r, queued, running)
		}
	}
}

// TestCancelFreesQueueSlot pins that nothing dead occupies a bounded slot:
// with the worker gated and the FIFO at QueueCap, cancelling k queued jobs
// admits and queues k fresh submissions.
func TestCancelFreesQueueSlot(t *testing.T) {
	const queueCap, k = 4, 2
	s, r := stubService(t, 1, queueCap)
	t.Cleanup(func() { r.releaseAll(2 * queueCap) })
	if _, err := submit(s, predSpec("VA", 10)); err != nil {
		t.Fatal(err)
	}
	waitLoads(t, s, 0, 1)
	var queued []*Job
	for i := 0; i < queueCap; i++ {
		j, err := submit(s, predSpec("VA", 20+i))
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := submit(s, predSpec("VA", 30)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: %v, want ErrQueueFull", err)
	}
	if !s.Cancel(queued[0].Hash) { // explicit cancel
		t.Fatal("cancel of a queued job refused")
	}
	queued[2].Release() // abandonment
	waitLoads(t, s, queueCap-k, 1)
	for i := 0; i < k; i++ {
		if _, err := submit(s, predSpec("VA", 40+i)); err != nil {
			t.Fatalf("fresh submission %d after %d cancels: %v", i, k, err)
		}
	}
	waitLoads(t, s, queueCap, 1)
	if _, err := submit(s, predSpec("VA", 50)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("refilled queue: %v, want ErrQueueFull", err)
	}
}

// Loads returns the live queued and running job counts.
func (s *Service) Loads() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}
