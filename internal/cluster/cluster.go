// Package cluster simulates the two HPC systems of the paper (Table II) —
// the remote super-computing cluster (Bridges, PSC) and the home cluster
// (Rivanna, UVA) — and executes packed workloads on them with a Slurm-like
// discrete-event scheduler. Two execution policies reproduce the paper's
// Figure 9 comparison: LevelSync replays a level packing with a barrier
// after every level (how the initial NFDT-DC workflows ran as dependent job
// arrays), while Backfill is work-conserving — a queued task starts the
// moment enough nodes and database connections are free, Slurm's "certain
// amount of real-time optimization" on top of the FFDT-DC ordering.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Spec is a cluster configuration (the rows of Table II).
type Spec struct {
	Name         string
	Nodes        int
	CPUsPerNode  int
	CoresPerCPU  int
	RAMPerNodeGB int
	CPU          string
	Network      string
	Filesystem   string
}

// TotalCores returns nodes × CPUs × cores.
func (s Spec) TotalCores() int { return s.Nodes * s.CPUsPerNode * s.CoresPerCPU }

// Bridges returns the remote super-computing cluster of Table II: 720
// allocated nodes, 2 × 14-core Haswell CPUs and 128 GB per node — the
// "over 20,000 cores" dedicated nightly.
func Bridges() Spec {
	return Spec{
		Name: "Bridges (PSC)", Nodes: 720, CPUsPerNode: 2, CoresPerCPU: 14,
		RAMPerNodeGB: 128, CPU: "Intel Haswell E5-2695 v3",
		Network: "Intel Omnipath-1", Filesystem: "Lustre",
	}
}

// Rivanna returns the home cluster of Table II: 50 nodes, 2 × 20-core Xeon
// Gold CPUs and 384 GB per node.
func Rivanna() Spec {
	return Spec{
		Name: "Rivanna (UVA)", Nodes: 50, CPUsPerNode: 2, CoresPerCPU: 20,
		RAMPerNodeGB: 384, CPU: "Intel Xeon Gold 6148",
		Network: "Mellanox ConnectX-5", Filesystem: "Lustre",
	}
}

// Window is the nightly access window (10 pm to 8 am in the paper).
type Window struct {
	StartHour, EndHour int
}

// NightlyWindow returns the paper's 22:00–08:00 window.
func NightlyWindow() Window { return Window{StartHour: 22, EndHour: 8} }

// Hours returns the window length in hours.
func (w Window) Hours() int {
	h := w.EndHour - w.StartHour
	if h <= 0 {
		h += 24
	}
	return h
}

// Seconds returns the window length in seconds.
func (w Window) Seconds() float64 { return float64(w.Hours()) * 3600 }

// TaskRecord is one executed task with its realized interval.
type TaskRecord struct {
	Task       sched.Task
	Start, End float64
}

// Injector decides the fate of a task at the moment the executor starts it:
// the fault model's verdict for the attempt (a faults.Crash carries the
// fraction of the runtime completed before the crash). It is consulted at
// most once per task per execution; callers that requeue failed tasks
// re-execute with a fresh injector bound to the new attempt number. A nil
// Injector is failure-free.
type Injector func(t sched.Task) faults.TaskFault

// FaultRecord is one injected failure observed during execution: the task
// held its nodes (and DB connection) on [Start, At); refusals are
// zero-length.
type FaultRecord struct {
	Task      sched.Task
	Kind      faults.Kind
	Start, At float64
}

// ExecResult summarizes an executed workload.
type ExecResult struct {
	Records []TaskRecord
	// Failed lists injected failures, in the order they were decided.
	Failed []FaultRecord
	// Makespan is the completion time of the last task.
	Makespan float64
	// Utilization is the paper's EC metric: busy node-time over
	// (allocated nodes × makespan). Under faults only completed work
	// counts as busy; crashed node-time is in WastedNodeSeconds.
	Utilization float64
	// Unstarted lists tasks that could not begin within the deadline
	// (zero deadline = unlimited).
	Unstarted []sched.Task
	// BusyNodeSeconds is the node-time of completed tasks.
	BusyNodeSeconds float64
	// WastedNodeSeconds is the node-time consumed by crashed attempts.
	WastedNodeSeconds float64
}

// ExecOptions extends the executors for fault-injected, resumable runs.
type ExecOptions struct {
	// Deadline is the absolute cut-off (zero = unlimited).
	Deadline float64
	// StartAt is the clock value at which execution begins — recovery
	// rounds resume mid-window.
	StartAt float64
	// Injector, when non-nil, is consulted as each task starts.
	Injector Injector
	// Ctx carries the tracer for executor spans; nil means untraced and
	// never cancelled. ExecuteBackfillOpts stops within cancelCheckEvery
	// tasks of its cancellation.
	Ctx context.Context
}

// execCtx returns the options' context, defaulting to Background.
func (o ExecOptions) execCtx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// endExecSpan annotates and closes an executor span with the run's shape.
func endExecSpan(sp *obs.Span, tasks int, res *ExecResult) {
	if sp == nil {
		return
	}
	sp.SetAttr(
		obs.Int("tasks", int64(tasks)),
		obs.Int("completed", int64(len(res.Records))),
		obs.Int("failed", int64(len(res.Failed))),
		obs.Int("unstarted", int64(len(res.Unstarted))),
		obs.Float("makespan", res.Makespan),
	)
	sp.End()
}

// ExecuteLevelSync replays a level packing with a barrier after each level:
// all tasks of level i run concurrently starting when level i−1 completes.
// Tasks whose level would end past the deadline are not started.
func ExecuteLevelSync(s *sched.Schedule, deadline float64) ExecResult {
	return ExecuteLevelSyncOpts(s, ExecOptions{Deadline: deadline})
}

// ExecuteLevelSyncOpts is ExecuteLevelSync with fault injection and a
// resumable start clock. A crashed task frees nothing early — the barrier
// waits for the level's packed height regardless — but its node-time counts
// as wasted rather than busy, and the failure is recorded for requeueing.
// Negative or non-finite times (hand-built schedules only) stay unstarted.
func ExecuteLevelSyncOpts(s *sched.Schedule, opt ExecOptions) ExecResult {
	var res ExecResult
	_, sp := obs.StartSpan(opt.execCtx(), "cluster.levelsync")
	defer func() { endExecSpan(sp, s.NumTasks(), &res) }()
	start := opt.StartAt
	busy := 0.0
	res.Records = make([]TaskRecord, 0, s.NumTasks())
	for _, l := range s.Levels {
		if !(l.Height >= 0 && l.Height <= math.MaxFloat64) || opt.Deadline > 0 && start+l.Height > opt.Deadline {
			res.Unstarted = append(res.Unstarted, l.Tasks...)
			continue
		}
		for _, t := range l.Tasks {
			if !(t.Time >= 0 && t.Time <= math.MaxFloat64) {
				res.Unstarted = append(res.Unstarted, t)
				continue
			}
			if opt.Injector != nil {
				switch f := opt.Injector(t); f.Kind {
				case faults.DBRefusal:
					res.Failed = append(res.Failed, FaultRecord{Task: t, Kind: f.Kind, Start: start, At: start})
					continue
				case faults.Crash:
					at := start + clampFrac(f.Frac)*t.Time
					res.Failed = append(res.Failed, FaultRecord{Task: t, Kind: f.Kind, Start: start, At: at})
					res.WastedNodeSeconds += (at - start) * float64(t.Nodes)
					continue
				}
			}
			res.Records = append(res.Records, TaskRecord{Task: t, Start: start, End: start + t.Time})
			busy += t.Time * float64(t.Nodes)
		}
		start += l.Height
	}
	if len(res.Records) == 0 {
		res.Records = nil // as when nothing was ever appended
	}
	res.Makespan = start
	res.BusyNodeSeconds = busy
	if s.TotalNodes > 0 && res.Makespan > 0 {
		res.Utilization = busy / (res.Makespan * float64(s.TotalNodes))
	}
	return res
}

// clampFrac bounds a crash fraction to (0, 1].
func clampFrac(f float64) float64 {
	if f <= 0 || f > 1 {
		return 1
	}
	return f
}

// cancelCheckEvery is how many tasks ExecuteBackfillOpts takes from its
// queue between two looks at its context: a night of 306 000 tasks then
// stops within a few milliseconds of being cancelled, and the check costs
// nothing against the scan.
const cancelCheckEvery = 1 << 10

// ExecuteBackfill runs an ordered task list on the cluster with
// work-conserving backfill: at every scheduling point the queue is scanned
// in order and every task that fits (free nodes, per-region DB bound,
// deadline) is started. Order is the packing's flattened (level, position)
// sequence — for FFDT-DC, non-increasing time.
func ExecuteBackfill(tasks []sched.Task, c sched.Constraints, deadline float64) (ExecResult, error) {
	return ExecuteBackfillOpts(tasks, c, ExecOptions{Deadline: deadline})
}

// ExecuteBackfillOpts is ExecuteBackfill with fault injection and a
// resumable start clock. A refused task fails instantly and holds nothing;
// a crashed task holds its nodes and DB connection until the crash instant,
// then frees them for backfilling — its partial node-time counts as wasted.
//
// The in-order queue scan is realized event by event (DESIGN.md §18):
// pending tasks sit in per-(region, nodes) FIFO buckets, whose members pass
// or fail the node and DB checks together, so the next task the scan would
// start is the lowest queue index among the heads of the buckets that fit;
// running tasks sit in a min-heap on end time. tasks is read, not copied.
// A cancelled opt.Ctx ends the run with its error.
func ExecuteBackfillOpts(tasks []sched.Task, c sched.Constraints, opt ExecOptions) (ExecResult, error) {
	if c.TotalNodes <= 0 {
		return ExecResult{}, fmt.Errorf("cluster: non-positive node count")
	}
	for _, t := range tasks {
		if t.Nodes <= 0 || t.Nodes > c.TotalNodes || !(t.Time >= 0 && t.Time <= math.MaxFloat64) {
			return ExecResult{}, fmt.Errorf("cluster: task %+v cannot fit on %d nodes or has no finite time", t, c.TotalNodes)
		}
	}
	var res ExecResult
	_, sp := obs.StartSpan(opt.execCtx(), "cluster.backfill")
	defer func() { endExecSpan(sp, len(tasks), &res) }()
	res.Records = make([]TaskRecord, 0, len(tasks))
	q := newBackfillQueue(tasks, c)
	free := c.TotalNodes
	var active endHeap
	now := opt.StartAt
	busy := 0.0
	ctx, taken := opt.execCtx(), 0

	for {
		// Start everything that fits, in queue order.
		for {
			i, region := q.pop(free)
			if i < 0 {
				break
			}
			if taken%cancelCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return ExecResult{}, err
				}
			}
			taken++
			t := tasks[i]
			if opt.Deadline > 0 && now+t.Time > opt.Deadline {
				res.Unstarted = append(res.Unstarted, t)
				continue
			}
			end, crashed := now+t.Time, false
			if opt.Injector != nil {
				f := opt.Injector(t)
				if f.Kind == faults.DBRefusal {
					res.Failed = append(res.Failed, FaultRecord{Task: t, Kind: f.Kind, Start: now, At: now})
					continue
				}
				if f.Kind != faults.None {
					end, crashed = now+clampFrac(f.Frac)*t.Time, true
					res.Failed = append(res.Failed, FaultRecord{Task: t, Kind: f.Kind, Start: now, At: end})
					res.WastedNodeSeconds += (end - now) * float64(t.Nodes)
				}
			}
			free -= t.Nodes
			q.running[region]++
			active.push(running{end: end, nodes: t.Nodes, region: region})
			if !crashed {
				res.Records = append(res.Records, TaskRecord{Task: t, Start: now, End: end})
				busy += t.Time * float64(t.Nodes)
			}
		}
		if len(active) == 0 {
			// Nothing runnable and nothing running: the queue is drained,
			// or what is left sits behind a non-positive DB bound —
			// defensive exit against malformed bounds: lift every bound,
			// so pop yields the leftovers in queue order.
			for r := range q.bound {
				q.bound[r] = math.MaxInt
			}
			for i, _ := q.pop(free); i >= 0; i, _ = q.pop(free) {
				res.Unstarted = append(res.Unstarted, tasks[i])
			}
			break
		}
		// Advance to the earliest completion and free everything ending then.
		now = active[0].end
		for len(active) > 0 && active[0].end <= now {
			done := active.pop()
			free += done.nodes
			q.running[done.region]--
		}
		if now > res.Makespan {
			res.Makespan = now
		}
	}
	if len(res.Records) == 0 {
		res.Records = nil // as when nothing was ever appended
	}
	res.BusyNodeSeconds = busy
	if res.Makespan > 0 {
		res.Utilization = busy / (res.Makespan * float64(c.TotalNodes))
	}
	return res, nil
}

// backfillQueue indexes one call's pending tasks for the in-order scan.
// Region codes are interned to dense ints; each (region, nodes) pair owns a
// FIFO of queue indices threaded through next. Live buckets are kept in
// ascending head order, so the first that fits holds the scan's next task.
type backfillQueue struct {
	buckets  []bucket
	next     []int32 // next[i]: the queue index after i in its bucket, or drained
	drained  int     // sentinel index: len(tasks), above every real one
	smallest int     // the fewest nodes a live bucket needs; MaxInt when none is live
	running  []int   // running[r]: tasks of region r holding a DB connection
	bound    []int   // bound[r]: B(T[r]), math.MaxInt when the region is unbounded
}

type bucket struct {
	head, tail int // queue indices; head == drained when empty
	nodes      int
	region     int
	sibling    int // next bucket of the same region, -1 at the end
}

func newBackfillQueue(tasks []sched.Task, c sched.Constraints) *backfillQueue {
	q := &backfillQueue{next: make([]int32, len(tasks)), drained: len(tasks), smallest: math.MaxInt}
	x := sched.NewRegionIndex(c.DBBound)
	var first []int // first[r]: head of region r's sibling chain
	for i, t := range tasks {
		r := x.ID(t.Region)
		if r == len(first) {
			first = append(first, -1)
		}
		b := first[r]
		for b >= 0 && q.buckets[b].nodes != t.Nodes {
			b = q.buckets[b].sibling
		}
		if b < 0 {
			q.buckets = append(q.buckets, bucket{head: i, tail: i, nodes: t.Nodes, region: r, sibling: first[r]})
			first[r], q.smallest = len(q.buckets)-1, min(q.smallest, t.Nodes)
		} else {
			q.next[q.buckets[b].tail] = int32(i)
			q.buckets[b].tail = i
		}
		q.next[i] = int32(q.drained)
	}
	q.running, q.bound = make([]int, len(first)), x.Bound
	return q
}

// pop removes and returns the lowest queue index whose task fits in free
// nodes with its region under its DB bound, together with the interned
// region; i is -1 when no pending task fits.
func (q *backfillQueue) pop(free int) (i, region int) {
	if free < q.smallest {
		return -1, -1
	}
	for j := range q.buckets {
		if p := &q.buckets[j]; p.nodes > free || q.running[p.region] >= q.bound[p.region] {
			continue
		}
		b := q.buckets[j]
		i, region = b.head, b.region
		b.head = int(q.next[i])
		k := j + 1
		for k < len(q.buckets) && q.buckets[k].head < b.head {
			k++
		}
		copy(q.buckets[j:], q.buckets[j+1:k])
		q.buckets[k-1] = b
		if b.head == q.drained {
			q.buckets, q.smallest = q.buckets[:k-1], math.MaxInt
			for _, o := range q.buckets {
				q.smallest = min(q.smallest, o.nodes)
			}
		}
		return i, region
	}
	return -1, -1
}

// running is a started task's hold on its nodes and DB connection.
type running struct {
	end    float64
	nodes  int
	region int
}

// endHeap is a min-heap of running tasks on end time.
type endHeap []running

func (h *endHeap) push(r running) {
	s := append(*h, r)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].end <= s[i].end {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *endHeap) pop() running {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && s[l].end < s[least].end {
			least = l
		}
		if r := 2*i + 2; r < n && s[r].end < s[least].end {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// ValidateExecution checks an ExecResult against the constraints: at no
// instant do running tasks exceed the node count or any region's DB bound,
// and no task interval overlaps the deadline. Crashed attempts held their
// nodes and DB connection until the crash instant and are validated as
// occupancy; zero-length refusals are not.
func ValidateExecution(res ExecResult, c sched.Constraints, deadline float64) error {
	type event struct {
		t     float64
		nodes int // positive at start, negative at end
		reg   string
		d     int
	}
	events := make([]event, 0, 2*(len(res.Records)+len(res.Failed)))
	for _, r := range res.Records {
		if deadline > 0 && r.End > deadline+1e-9 {
			return fmt.Errorf("cluster: task %+v ends at %g past deadline %g", r.Task, r.End, deadline)
		}
		events = append(events, event{t: r.Start, nodes: r.Task.Nodes, reg: r.Task.Region, d: 1})
		events = append(events, event{t: r.End, nodes: -r.Task.Nodes, reg: r.Task.Region, d: -1})
	}
	for _, f := range res.Failed {
		if f.At <= f.Start {
			continue // refusals hold nothing
		}
		if deadline > 0 && f.At > deadline+1e-9 {
			return fmt.Errorf("cluster: failed task %+v held nodes until %g past deadline %g", f.Task, f.At, deadline)
		}
		events = append(events, event{t: f.Start, nodes: f.Task.Nodes, reg: f.Task.Region, d: 1})
		events = append(events, event{t: f.At, nodes: -f.Task.Nodes, reg: f.Task.Region, d: -1})
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return a.d - b.d // process ends before starts at ties
	})
	nodes := 0
	perRegion := map[string]int{}
	for _, e := range events {
		nodes += e.nodes
		perRegion[e.reg] += e.d
		if nodes > c.TotalNodes {
			return fmt.Errorf("cluster: %d nodes in use at t=%g (limit %d)", nodes, e.t, c.TotalNodes)
		}
		if bound, ok := c.DBBound[e.reg]; ok && perRegion[e.reg] > bound {
			return fmt.Errorf("cluster: region %s has %d concurrent tasks at t=%g (bound %d)", e.reg, perRegion[e.reg], e.t, bound)
		}
	}
	return nil
}
