package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is 429 backpressure: the bounded queue cannot admit the
	// job (mirrors the nightly pipeline's shed semantics — excess load is
	// dropped explicitly, never buffered unboundedly).
	ErrQueueFull = errors.New("scenario: queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("scenario: service draining")
)

// Priority classifies a submission for admission control. Interactive
// requests (a policy-maker at a dashboard) may use the whole queue; normal
// requests keep a small headroom reserved for interactive ones on large
// queues; batch requests (sweeps, pre-warming) are shed once half the queue
// is occupied so background load can never starve the foreground.
type Priority int

// Priority classes, lowest ordinal = default.
const (
	PriorityNormal Priority = iota
	PriorityInteractive
	PriorityBatch
)

func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityBatch:
		return "batch"
	default:
		return "normal"
	}
}

// ParsePriority maps the wire form ("", interactive, normal, batch) to a
// Priority; the empty string is PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	default:
		return PriorityNormal, fmt.Errorf("scenario: unknown priority %q (want interactive | normal | batch)", s)
	}
}

// ShedError rejects a submission by priority-class admission control: the
// queue still has room, but not for this class. Distinct from ErrQueueFull
// so clients can tell "the service is saturated" from "your class is being
// shed to protect the foreground" (and back off accordingly).
type ShedError struct {
	Class Priority
	// Depth / Capacity snapshot the queue at the admission decision.
	Depth    int
	Capacity int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("scenario: %s-priority submission shed (queue %d/%d)", e.Class, e.Depth, e.Capacity)
}

// DrainError reports a drain whose post-cancel grace expired: the listed
// jobs were cancelled but their runners had not unwound when Drain gave up
// waiting. It unwraps to the drain context's error so existing
// errors.Is(err, context.DeadlineExceeded) checks keep working.
type DrainError struct {
	// Running lists the hashes of jobs still occupying a worker, sorted.
	Running []string
	cause   error
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("scenario: drain grace expired with %d jobs still running (%s): %v",
		len(e.Running), strings.Join(e.Running, ", "), e.cause)
}

func (e *DrainError) Unwrap() error { return e.cause }

// BadSpecError wraps a validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// JobState is the lifecycle of a job.
type JobState int32

// Job lifecycle states.
const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

// Runner executes one normalized spec. The default runner drives the
// core.Pipeline workflows; tests substitute stubs.
type Runner func(ctx context.Context, spec Spec) (*Result, error)

// Job is one admitted scenario run and the handle every submitter of its
// spec shares (single-flight): each holds an interest reference, and when the
// last interested party walks away the work is cancelled so abandoned
// requests stop burning CPU. The same *Job is what sits in the FIFO.
type Job struct {
	// Hash is the spec's content address and the job's public ID.
	Hash string
	// Spec is the normalized spec.
	Spec Spec

	svc  *Service
	done chan struct{}
	// span is the submitter's current span (nil when untraced), so the queue
	// wait and the run report into that request's trace from the worker
	// that performs them. Read-only.
	span *obs.Span
	// pri is the admission class the job was admitted under.
	pri Priority

	// mu guards what Status and Wait read. Writers also hold Service.mu, so
	// code under Service.mu reads these fields without taking mu.
	mu     sync.Mutex
	state  JobState
	err    error
	result *Result
	shared int64
	cached bool

	// The fields below are guarded by Service.mu alone.
	interest int
	pinned   bool
	// cancel stops the run; non-nil exactly while a worker runs it.
	cancel context.CancelFunc
	// qspan is the open queue.wait span while the job is queued.
	qspan *obs.Span

	// entry is the result-store entry a store hit was served from; nil on
	// every other job. Read-only.
	entry *storeEntry
}

// storeEntry is one result in the result store. The reply bytes are
// encoded on the entry's first hit and written on every hit after, so only
// results that are actually repeated carry them: at most the store's
// capacity times one reply.
type storeEntry struct {
	res   *Result
	once  sync.Once
	reply []byte
}

// body returns the 200 reply for the entry's result, byte for byte what
// writeJSON sends for it.
func (e *storeEntry) body() []byte {
	e.once.Do(func() { e.reply = encodeJSON(e.res) })
	return e.reply
}

// completedJob wraps a result-store hit as an already-done job.
func completedJob(hash string, spec Spec, e *storeEntry) *Job {
	j := &Job{Hash: hash, Spec: spec, done: make(chan struct{}),
		state: StateDone, result: e.res, cached: true, entry: e}
	close(j.done)
	return j
}

// live reports whether the job has not settled. Caller holds Service.mu.
func (j *Job) live() bool { return j.state == StateQueued || j.state == StateRunning }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is done. A ctx expiry does NOT
// release the caller's interest — pair every submission with Release.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Pin keeps the job alive independent of interest references — an
// asynchronously submitted job must survive its submitter's disconnect
// until polled or explicitly cancelled.
func (j *Job) Pin() {
	if j.svc == nil {
		return // result-store hit
	}
	j.svc.mu.Lock()
	j.pinned = true
	j.svc.mu.Unlock()
}

// Release drops one interest reference (a waiting client that completed or
// disconnected). When the count reaches zero on an unpinned, unfinished job,
// the work is cancelled: taken out of the FIFO, or its run context
// cancelled.
func (j *Job) Release() {
	s := j.svc
	if s == nil {
		return // result-store hit
	}
	var qs *obs.Span
	s.mu.Lock()
	j.interest--
	if j.interest <= 0 && !j.pinned && j.live() {
		qs = s.abandonLocked(j)
	}
	s.mu.Unlock()
	endQueueSpan(qs, "canceled")
}

// JobStatus is the poll payload.
type JobStatus struct {
	ID       string `json:"id"`
	Workflow string `json:"workflow"`
	State    string `json:"state"`
	// Shared counts submitters deduplicated onto this run.
	Shared int64 `json:"shared"`
	// Cached marks a result served straight from the result store.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.Hash, Workflow: j.Spec.Workflow, State: j.state.String(),
		Shared: j.shared, Cached: j.cached,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Config parameterizes a Service.
type Config struct {
	// Pipeline is the shared workflow substrate.
	Pipeline *core.Pipeline
	// Workers is the fixed worker count serving the FIFO (default 2).
	Workers int
	// QueueCap bounds the FIFO; admission rejects with ErrQueueFull when it
	// is full (default 16).
	QueueCap int
	// CacheCap bounds the LRU result store (default 64).
	CacheCap int
	// Runner overrides the pipeline runner (tests).
	Runner Runner
	// Fingerprint overrides the pipeline fingerprint (tests without a
	// pipeline).
	Fingerprint string
	// Registry receives every metric series of the serving tier. Nil
	// allocates a private registry, reachable via Service.Registry().
	Registry *obs.Registry
	// Fidelity enables the fidelity ladder: specs carrying a fidelity field
	// route through it; everything else takes the exact path. Nil disables
	// the ladder (fidelity specs then fall through to the legacy runner,
	// which ignores the field).
	Fidelity *fidelity.Router
	// DrainGrace bounds how long Drain waits for cancelled runners to
	// unwind after its context expires (default 5s). A runner that ignores
	// cancellation past the grace is abandoned and reported via DrainError.
	DrainGrace time.Duration
}

// Service is the scenario engine and its one front door: content-addressed
// result store, single-flight table, priority admission, one bounded FIFO
// served by a fixed set of workers, metrics and graceful drain.
//
// Lock order: Service.mu → Job.mu. Service.mu is never held across a runner
// call or a span end (a sink may be a journal file): code that decides a
// span end under the lock ends the span after unlocking.
type Service struct {
	fingerprint string
	store       *castore.Store[*storeEntry]
	reg         *obs.Registry
	fidelity    *fidelity.Router
	runner      Runner
	workers     int
	queueCap    int
	drainGrace  time.Duration

	submitted, rejected, deduped, shed *obs.Counter
	jobsDone, jobsFailed, jobsCanceled *obs.Counter

	baseCtx    context.Context // parent of every run; cancelled by an expired Drain
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // workers

	mu sync.Mutex // guards the fields below
	// cond wakes idle workers: signalled per enqueue, broadcast on drain.
	// Its locker is mu.
	cond     *sync.Cond
	queue    []*Job
	queuedBy [3]int // per Priority class
	running  int
	started  int                       // workers that have come up
	inflight map[string]*Job           // unsettled jobs by hash: the single-flight table
	recent   []*Job                    // settled jobs kept for status polls, oldest first
	registry map[string]*Job           // inflight + recent, for Lookup
	latency  map[string]*obs.Histogram // by workflow
	draining bool
}

// recentCap bounds how many settled jobs stay pollable (results live on in
// the result store beyond this).
const recentCap = 256

// endQueueSpan closes a queue.wait span with its outcome; nil is a no-op.
func endQueueSpan(sp *obs.Span, outcome string) {
	sp.SetAttr(obs.String("outcome", outcome))
	sp.End()
}

// isCancel classifies context-style cancellation errors.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// NewService builds and starts a service; callers must Drain it.
func NewService(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 64
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Service{
		fingerprint: cfg.Fingerprint,
		store:       castore.New(castore.WithMaxEntries[*storeEntry](cfg.CacheCap)),
		reg:         cfg.Registry,
		fidelity:    cfg.Fidelity,
		runner:      cfg.Runner,
		workers:     cfg.Workers,
		queueCap:    cfg.QueueCap,
		drainGrace:  cfg.DrainGrace,
		inflight:    map[string]*Job{},
		registry:    map[string]*Job{},
		latency:     map[string]*obs.Histogram{},
	}
	s.cond = sync.NewCond(&s.mu)
	if s.fingerprint == "" && cfg.Pipeline != nil {
		s.fingerprint = Fingerprint(cfg.Pipeline)
	}
	if s.runner == nil {
		if cfg.Fidelity != nil {
			s.runner = FidelityPipelineRunner(cfg.Pipeline, cfg.Fidelity)
		} else {
			s.runner = PipelineRunner(cfg.Pipeline)
		}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.registerMetrics()
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the obs registry carrying the service's metric series —
// the source the HTTP layer's Prometheus /metrics endpoint renders.
func (s *Service) Registry() *obs.Registry { return s.reg }

// SubmitCtx is the front door: normalize and hash once, look the result
// store up once, then — under one acquisition of Service.mu — attach to an
// identical unsettled job (single-flight), or admit by priority class and
// append the job to the FIFO. An admitted job is therefore never refused
// later. The caller holds one interest reference on the returned job and
// must Release it (a result-store hit returns an already-done job where
// Release is a no-op).
//
// ctx contributes ONLY tracing identity: when it carries a request trace
// (obs), the admission decision, queue waits and the job's whole execution
// report into it. Lifecycle and cancellation are governed by interest
// references and the service's own context tree, exactly as for an untraced
// submission, so traced runs stay bit-identical to untraced.
//
// Errors: *BadSpecError, ErrQueueFull, *ShedError, ErrDraining.
func (s *Service) SubmitCtx(ctx context.Context, spec Spec, pri Priority) (*Job, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, &BadSpecError{Err: err}
	}
	hash, err := ns.Hash(s.fingerprint)
	if err != nil {
		return nil, &BadSpecError{Err: err}
	}
	if e, ok := s.store.Get(hash); ok {
		obs.Event(ctx, "cache.hit", obs.String("hash", hash))
		return completedJob(hash, ns, e), nil
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if j, ok := s.inflight[hash]; ok {
		j.mu.Lock()
		j.shared++
		j.mu.Unlock()
		j.interest++
		state := j.state
		s.mu.Unlock()
		s.deduped.Inc()
		obs.Event(ctx, "singleflight.attach",
			obs.String("hash", hash), obs.String("owner_state", state.String()))
		return j, nil
	}
	if err := s.admitLocked(pri); err != nil {
		s.mu.Unlock()
		var shed *ShedError
		switch {
		case errors.Is(err, ErrQueueFull):
			s.rejected.Inc()
			obs.Event(ctx, "admission.reject", obs.String("reason", "queue_full"),
				obs.String("class", pri.String()))
		case errors.As(err, &shed):
			s.shed.Inc()
			obs.Event(ctx, "admission.reject", obs.String("reason", "shed"),
				obs.String("class", pri.String()), obs.Int("depth", int64(shed.Depth)))
		}
		return nil, err
	}
	j := &Job{Hash: hash, Spec: ns, svc: s, pri: pri, done: make(chan struct{}),
		interest: 1, span: obs.SpanFrom(ctx)}
	s.inflight[hash] = j
	s.registry[hash] = j
	s.enqueueLocked(j)
	s.mu.Unlock()
	s.submitted.Inc()
	s.store.RecordMiss()
	return j, nil
}

// admitLocked applies the per-class budget over the queue: batch may use the
// first half, normal everything except a reserved eighth (zero below eight
// slots), interactive all of it. A full queue is ErrQueueFull for every
// class — the saturation signal beats a class shed. Caller holds s.mu.
func (s *Service) admitLocked(pri Priority) error {
	queued, capacity := len(s.queue), s.queueCap
	if queued >= capacity {
		return ErrQueueFull
	}
	budget := capacity
	switch pri {
	case PriorityBatch:
		budget = (capacity + 1) / 2
	case PriorityNormal:
		budget = capacity - capacity/8
	}
	if queued >= budget {
		return &ShedError{Class: pri, Depth: queued, Capacity: capacity}
	}
	return nil
}

// Lookup returns the job for an ID with no interest reference: unsettled and
// recently settled jobs first, then the result store (Peek: a status poll
// neither counts as a hit nor refreshes the LRU).
func (s *Service) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.registry[id]
	s.mu.Unlock()
	if ok {
		return j, true
	}
	if e, ok := s.store.Peek(id); ok {
		return completedJob(id, e.res.Spec, e), true
	}
	return nil, false
}

// Cancel cancels an unsettled job by ID. It reports whether a cancellation
// was initiated.
func (s *Service) Cancel(id string) bool {
	var qs *obs.Span
	s.mu.Lock()
	j := s.registry[id]
	live := j != nil && j.live()
	if live {
		qs = s.abandonLocked(j)
	}
	s.mu.Unlock()
	endQueueSpan(qs, "canceled")
	return live
}

// enqueueLocked appends j to the FIFO, opens its queue.wait span and wakes
// one idle worker. Caller holds s.mu.
func (s *Service) enqueueLocked(j *Job) {
	s.queue = append(s.queue, j)
	s.queuedBy[j.pri]++
	_, j.qspan = obs.StartSpan(obs.WithSpan(context.Background(), j.span), "queue.wait",
		obs.String("hash", j.Hash), obs.String("priority", j.pri.String()))
	s.cond.Signal()
}

// dequeueLocked takes j out of the FIFO, so a job that leaves — to a worker
// or a cancellation — frees its slot at once. Caller holds s.mu.
func (s *Service) dequeueLocked(j *Job) {
	if i := slices.Index(s.queue, j); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
		s.queuedBy[j.pri]--
	}
}

// abandonLocked cancels a live job's work. A running job has its run context
// cancelled and the worker settles it when the runner unwinds; a queued job
// is taken out of the FIFO and settled as canceled at once, so nothing dead
// occupies a bounded slot; its open queue.wait span is returned for the
// caller to end after unlocking. Caller holds s.mu.
func (s *Service) abandonLocked(j *Job) (qspan *obs.Span) {
	if j.cancel != nil {
		j.cancel()
		return nil
	}
	s.dequeueLocked(j)
	qspan = j.qspan
	s.finishLocked(j, nil, context.Canceled)
	return qspan
}

// finishLocked settles a live job exactly once: terminal state, waiters
// released, out of the single-flight table, kept pollable for recentCap more
// settlements. Caller holds s.mu.
func (s *Service) finishLocked(j *Job, res *Result, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
		s.jobsDone.Inc()
	case isCancel(err):
		j.state = StateCanceled
		s.jobsCanceled.Inc()
	default:
		j.state = StateFailed
		s.jobsFailed.Inc()
	}
	j.result, j.err = res, err
	close(j.done)
	j.mu.Unlock()
	j.qspan = nil
	delete(s.inflight, j.Hash)
	s.recent = append(s.recent, j)
	for len(s.recent) > recentCap {
		old := s.recent[0]
		s.recent = s.recent[1:]
		if s.registry[old.Hash] == old {
			delete(s.registry, old.Hash)
		}
	}
}

// worker serves the FIFO until a drain empties it.
func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	s.started++
	for {
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.dequeueLocked(j)
		s.running++
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.cancel = cancel
		qs := j.qspan
		j.qspan = nil
		s.mu.Unlock()
		endQueueSpan(qs, "run")
		s.run(ctx, j)
		cancel() // release the context's resources
		s.mu.Lock()
	}
}

// run executes one job on a worker and settles it.
func (s *Service) run(ctx context.Context, j *Job) {
	started := time.Now()
	// tier is the requested fidelity ("auto" when unset) — the decided tier
	// lands on the job.run span after the runner returns.
	tier := j.Spec.Fidelity
	if tier == "" {
		tier = "auto"
	}
	runCtx, rspan := obs.StartSpan(obs.WithSpan(ctx, j.span), "job.run",
		obs.String("hash", j.Hash), obs.String("workflow", j.Spec.Workflow))
	var res *Result
	var err error
	// pprof labels attribute CPU samples in the -pprof profiles to the
	// request being served; they are invisible to the runner itself.
	pprof.Do(runCtx, pprof.Labels(
		"hash", j.Hash, "workflow", j.Spec.Workflow,
		"tier", tier,
	), func(ctx context.Context) {
		res, err = s.runner(ctx, j.Spec)
	})
	elapsed := time.Since(started)
	if err != nil {
		rspan.SetAttr(obs.String("error", err.Error()))
	} else if res != nil && res.Tier != "" {
		rspan.SetAttr(obs.String("tier", res.Tier))
	}
	rspan.End()
	if err == nil {
		res.Hash = j.Hash
		res.Workflow = j.Spec.Workflow
		res.Spec = j.Spec
		res.ElapsedSeconds = elapsed.Seconds()
	}

	s.mu.Lock()
	s.running--
	j.cancel = nil
	if err == nil {
		s.store.Put(j.Hash, &storeEntry{res: res})
		lat := s.latency[j.Spec.Workflow]
		if lat == nil {
			lat = s.reg.Histogram(`epi_scenario_latency_seconds{workflow="`+j.Spec.Workflow+`"}`, nil)
			s.latency[j.Spec.Workflow] = lat
		}
		lat.Observe(elapsed.Seconds()) // before the waiters wake: a served reply is a counted one
	}
	s.finishLocked(j, res, err)
	s.mu.Unlock()
}

// Readiness is the /readyz payload: overall readiness plus the state of
// each serving layer.
type Readiness struct {
	Ready      bool `json:"ready"`
	WorkersUp  int  `json:"workers_up"`
	WorkersSet int  `json:"workers_configured"`
	Draining   bool `json:"draining"`
	// Fidelity reports per-tier warm state when the ladder is enabled
	// (absent otherwise). The emulator tier is warm once at least one
	// config family has a fitted emulator.
	Fidelity map[string]fidelity.TierState `json:"fidelity,omitempty"`
}

// Readiness reports whether the service can usefully serve: all workers
// have started, the service is not draining, and — when the fidelity ladder
// is enabled — at least one emulator is fitted (before that, every
// auto-routed query escalates to a full simulation, which is availability
// but not the latency contract /readyz guards).
func (s *Service) Readiness() Readiness {
	s.mu.Lock()
	r := Readiness{Draining: s.draining, WorkersUp: s.started, WorkersSet: s.workers}
	s.mu.Unlock()
	r.Ready = r.WorkersUp >= r.WorkersSet && !r.Draining
	if s.fidelity != nil {
		r.Fidelity = s.fidelity.Status()
		if !r.Fidelity[string(fidelity.TierEmulator)].Ready {
			r.Ready = false
		}
	}
	return r
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: new submissions are rejected,
// queued and in-flight jobs run to completion, workers exit. If ctx expires
// first, the remaining jobs are cancelled and Drain waits up to the
// configured DrainGrace for the workers to unwind, then returns ctx.Err() —
// or, when a runner ignores cancellation past the grace, a *DrainError
// listing the hashes still occupying workers (it unwraps to ctx.Err(), so
// deadline checks via errors.Is keep working).
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	s.baseCancel()
	grace := time.NewTimer(s.drainGrace)
	defer grace.Stop()
	select {
	case <-finished:
		return ctx.Err()
	case <-grace.C:
		return &DrainError{Running: s.runningHashes(), cause: ctx.Err()}
	}
}

// runningHashes snapshots the hashes of jobs currently on a worker, sorted
// for stable error messages.
func (s *Service) runningHashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for h, j := range s.inflight {
		if j.state == StateRunning {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// Quiesced reports what the service still holds, nil when nothing: an empty
// single-flight table, the FIFO and running count at zero, and at most
// recentCap settled jobs kept pollable. Anything else after Drain returned
// nil is a leak.
func (s *Service) Quiesced() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var held []string
	if n := len(s.inflight); n > 0 {
		held = append(held, fmt.Sprintf("%d jobs in the single-flight table", n))
	}
	if n := len(s.registry); n > recentCap {
		held = append(held, fmt.Sprintf("%d pollable jobs (cap %d)", n, recentCap))
	}
	if len(s.queue) > 0 || s.running > 0 {
		held = append(held, fmt.Sprintf("%d queued, %d running", len(s.queue), s.running))
	}
	if held == nil {
		return nil
	}
	return fmt.Errorf("scenario: not quiesced: %s", strings.Join(held, "; "))
}
