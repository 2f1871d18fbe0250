// Package faults models the operational failures the production pipeline
// had to absorb by hand: nightly <cell, region> batches on the remote
// cluster hit node/task crashes, population-database connection refusals,
// and Globus transfer stalls inside the hard 10pm–8am window. The model is
// seeded and fully deterministic — every decision is a pure hash of
// (seed, fault class, identity, attempt), so the same Spec produces the
// same failure trace regardless of execution order, goroutine scheduling
// or GOMAXPROCS. That property is what makes recovery behaviour (retry,
// requeue, shed) reproducible and testable.
package faults

import "math"

// Spec configures the fault model. The zero value is failure-free; it is a
// plain value type so it can be embedded verbatim in night reports.
type Spec struct {
	// Seed drives every fault decision; distinct seeds give independent
	// failure traces.
	Seed uint64
	// TaskCrashProb is the per-attempt probability that a running task is
	// killed mid-execution (node failure, OOM, Slurm preemption).
	TaskCrashProb float64
	// DBRefusalProb is the per-attempt probability that the task's region
	// database refuses the connection at start-up (the bound of Section V
	// enforced at run time).
	DBRefusalProb float64
	// TransferStallProb is the per-attempt probability that a site-to-site
	// transfer stalls and must be retried.
	TransferStallProb float64
}

// Enabled reports whether any fault class can fire.
func (s Spec) Enabled() bool {
	return s.TaskCrashProb > 0 || s.DBRefusalProb > 0 || s.TransferStallProb > 0
}

// Validate rejects probabilities outside [0, 1].
func (s Spec) Validate() error {
	for _, p := range []float64{s.TaskCrashProb, s.DBRefusalProb, s.TransferStallProb} {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return errBadProb(p)
		}
	}
	return nil
}

type errBadProb float64

func (e errBadProb) Error() string { return "faults: probability outside [0,1]" }

// Kind classifies a task-level fault.
type Kind int

// Task-level fault classes.
const (
	None Kind = iota
	// Crash kills the task after a fraction of its runtime has elapsed.
	Crash
	// DBRefusal fails the task instantly at start: the region database
	// refused the connection.
	DBRefusal
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case DBRefusal:
		return "db-refused"
	default:
		return "unknown"
	}
}

// TaskFault is the fate of one task attempt.
type TaskFault struct {
	Kind Kind
	// Frac is the fraction of the task's runtime completed before a Crash
	// (in (0, 1)); zero for other kinds.
	Frac float64
}

// Model answers fault queries for a Spec.
type Model struct {
	spec Spec
	// ctrs, when set, books injected faults. Counting happens after the
	// decision is drawn, so it never changes the deterministic trace.
	ctrs *Counters
}

// New builds a model. A nil model is returned for the zero (failure-free)
// spec so callers can branch on it cheaply.
func New(spec Spec) *Model {
	if !spec.Enabled() {
		return nil
	}
	return &Model{spec: spec}
}

// Spec returns the model's configuration.
func (m *Model) Spec() Spec { return m.spec }

// SetCounters attaches an injection-count sink; nil detaches it. Safe on a
// nil model (the failure-free case books nothing).
func (m *Model) SetCounters(c *Counters) {
	if m != nil {
		m.ctrs = c
	}
}

// Fault-class domain tags keep the decision streams independent.
const (
	tagCrash uint64 = 0xC4A5_11ED_0000_0001
	tagFrac  uint64 = 0xC4A5_11ED_0000_0002
	tagDB    uint64 = 0xDB1F_05A1_0000_0003
	tagStall uint64 = 0x57A1_1000_0000_0004
	tagJit   uint64 = 0x717E_4000_0000_0005
)

// mix64 is the splitmix64 finalizer: a strong 64-bit mixing permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds values into the model's seed, one mixing round per value.
func (m *Model) hash(vals ...uint64) uint64 {
	h := mix64(m.spec.Seed ^ 0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = mix64(h ^ v)
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for _, c := range []byte(s) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// uniform returns a deterministic uniform value in [0, 1) for the tags.
func (m *Model) uniform(vals ...uint64) float64 {
	return float64(m.hash(vals...)>>11) * (1.0 / (1 << 53))
}

// Task decides the fate of attempt `attempt` (0-based) of the given
// <region, cell, replicate> task. The decision is a pure function of the
// spec and the arguments. DB refusal is drawn first (it strikes at start,
// before the task can crash), then the crash draw.
func (m *Model) Task(region string, cell, replicate, attempt int) TaskFault {
	if m == nil {
		return TaskFault{}
	}
	// The identity words are passed straight to the variadic draw so they
	// stay on the stack: a decision allocates nothing.
	r, c, p, a := hashString(region), uint64(uint32(cell)), uint64(uint32(replicate)), uint64(uint32(attempt))
	if m.spec.DBRefusalProb > 0 && m.uniform(tagDB, r, c, p, a) < m.spec.DBRefusalProb {
		if m.ctrs != nil {
			m.ctrs.DBRefusals.Add(1)
		}
		return TaskFault{Kind: DBRefusal}
	}
	if m.spec.TaskCrashProb > 0 && m.uniform(tagCrash, r, c, p, a) < m.spec.TaskCrashProb {
		// Crash somewhere in (0, 1) of the runtime, bounded away from the
		// endpoints so a crashed attempt always wastes some node-time but
		// never masquerades as a completion.
		u := m.uniform(tagFrac, r, c, p, a)
		if m.ctrs != nil {
			m.ctrs.Crashes.Add(1)
		}
		return TaskFault{Kind: Crash, Frac: 0.02 + 0.96*u}
	}
	return TaskFault{}
}

// TransferStall decides whether attempt `attempt` (0-based) of the labeled
// transfer stalls.
func (m *Model) TransferStall(label string, attempt int) bool {
	if m == nil || m.spec.TransferStallProb <= 0 {
		return false
	}
	stalled := m.uniform(tagStall, hashString(label), uint64(uint32(attempt))) < m.spec.TransferStallProb
	if stalled && m.ctrs != nil {
		m.ctrs.TransferStalls.Add(1)
	}
	return stalled
}

// Jitter returns a deterministic value in [0, 1) used to spread backoff
// delays so retries do not re-collide (the "jittered backoff" of the
// recovery policy). Scope distinguishes independent jitter streams.
func (m *Model) Jitter(scope string, cell, replicate, attempt int) float64 {
	if m == nil {
		return 0
	}
	return m.uniform(tagJit, hashString(scope), uint64(uint32(cell)), uint64(uint32(replicate)), uint64(uint32(attempt)))
}
