package faults

import (
	"math"
	"testing"
)

func TestZeroSpecIsFailureFree(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Fatal("zero spec reports enabled")
	}
	if m := New(Spec{Seed: 42}); m != nil {
		t.Fatal("seed alone should not enable the model")
	}
	var m *Model // nil model must be safe to query
	if f := m.Task("VA", 1, 2, 0); f.Kind != None {
		t.Fatalf("nil model injected %v", f.Kind)
	}
	if m.TransferStall("configs", 0) {
		t.Fatal("nil model stalled a transfer")
	}
	if m.Jitter("backoff", 0, 0, 0) != 0 {
		t.Fatal("nil model jitter not zero")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{TaskCrashProb: 0.5, DBRefusalProb: 1, TransferStallProb: 0}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{TaskCrashProb: -0.1},
		{DBRefusalProb: 1.5},
		{TransferStallProb: math.NaN()},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid spec accepted: %+v", bad)
		}
	}
}

// Decisions must be pure functions of (seed, identity, attempt): querying in
// any order, any number of times, gives the same answer.
func TestDecisionsDeterministicAndOrderIndependent(t *testing.T) {
	spec := Spec{Seed: 7, TaskCrashProb: 0.3, DBRefusalProb: 0.2, TransferStallProb: 0.25}
	a, b := New(spec), New(spec)
	type q struct {
		region             string
		cell, rep, attempt int
	}
	queries := []q{{"CA", 0, 0, 0}, {"VA", 3, 1, 2}, {"WY", 11, 14, 1}, {"CA", 0, 0, 1}}
	// Forward on a, reversed and repeated on b.
	fa := make([]TaskFault, len(queries))
	for i, x := range queries {
		fa[i] = a.Task(x.region, x.cell, x.rep, x.attempt)
	}
	for i := len(queries) - 1; i >= 0; i-- {
		x := queries[i]
		b.Task(x.region, x.cell, x.rep, x.attempt) // warm, answers discarded
	}
	for i, x := range queries {
		if got := b.Task(x.region, x.cell, x.rep, x.attempt); got != fa[i] {
			t.Fatalf("query %d: %+v != %+v", i, got, fa[i])
		}
	}
	if a.TransferStall("night-configs", 0) != b.TransferStall("night-configs", 0) {
		t.Fatal("transfer decision not deterministic")
	}
	if a.Jitter("backoff", 1, 2, 3) != b.Jitter("backoff", 1, 2, 3) {
		t.Fatal("jitter not deterministic")
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	specA := Spec{Seed: 1, TaskCrashProb: 0.5}
	specB := Spec{Seed: 2, TaskCrashProb: 0.5}
	a, b := New(specA), New(specB)
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		if (a.Task("VA", i, 0, 0).Kind == Crash) == (b.Task("VA", i, 0, 0).Kind == Crash) {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 1 and 2 produced identical crash traces")
	}
}

// Empirical rates must track the configured probabilities (the model is a
// hash, not an RNG stream — verify it is still uniform enough).
func TestEmpiricalRates(t *testing.T) {
	spec := Spec{Seed: 99, TaskCrashProb: 0.2, DBRefusalProb: 0.1, TransferStallProb: 0.3}
	m := New(spec)
	const n = 20000
	crashes, refusals, stalls := 0, 0, 0
	for i := 0; i < n; i++ {
		switch m.Task("CA", i, i%15, 0).Kind {
		case Crash:
			crashes++
		case DBRefusal:
			refusals++
		}
		if m.TransferStall("summaries", i) {
			stalls++
		}
	}
	// DB refusal is drawn first; crash rate is conditional on no refusal.
	wantCrash := 0.2 * (1 - 0.1)
	checkRate := func(name string, got int, want float64) {
		r := float64(got) / n
		if math.Abs(r-want) > 0.02 {
			t.Errorf("%s rate %.3f want ≈%.3f", name, r, want)
		}
	}
	checkRate("crash", crashes, wantCrash)
	checkRate("refusal", refusals, 0.1)
	checkRate("stall", stalls, 0.3)
}

func TestCrashFracInRange(t *testing.T) {
	m := New(Spec{Seed: 5, TaskCrashProb: 1})
	for i := 0; i < 1000; i++ {
		f := m.Task("TX", i, 0, 0)
		if f.Kind != Crash {
			t.Fatalf("prob 1 did not crash (got %v)", f.Kind)
		}
		if f.Frac <= 0 || f.Frac >= 1 {
			t.Fatalf("crash frac %v outside (0,1)", f.Frac)
		}
	}
}

func TestAttemptsIndependent(t *testing.T) {
	m := New(Spec{Seed: 11, TaskCrashProb: 0.5})
	differs := false
	for i := 0; i < 100; i++ {
		if m.Task("NC", i, 0, 0).Kind != m.Task("NC", i, 0, 1).Kind {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("attempt number does not affect the decision — retries could never succeed")
	}
}

// Known draws, captured before Task stopped building its hash input on the
// heap: the fixed-size mixing must reproduce every decision bit for bit, and
// a decision must not allocate.
func TestTaskDrawsPinnedAndAllocationFree(t *testing.T) {
	specs := []Spec{
		{Seed: 1, TaskCrashProb: 0.3, DBRefusalProb: 0.2},
		{Seed: 0xDEADBEEF, TaskCrashProb: 0.9},
		{Seed: 7, DBRefusalProb: 0.5, TaskCrashProb: 0.5},
	}
	for _, tc := range []struct {
		spec                     int
		region                   string
		cell, replicate, attempt int
		want                     TaskFault
	}{
		{0, "VA", 0, 0, 0, TaskFault{}},
		{0, "CA", 11, 14, 1, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fef0cb13ff712df)}},
		{0, "", 0, -1, 0, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fe7447780db3c10)}},
		{0, "WY", 299, 0, 3, TaskFault{}},
		{0, "TX", -1, 7, 2, TaskFault{}},
		{1, "VA", 0, 0, 0, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fd10d686ffc1616)}},
		{1, "CA", 11, 14, 1, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fe06c8029cd3bf7)}},
		{1, "", 0, -1, 0, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fdc025429fa0a5d)}},
		{1, "WY", 299, 0, 3, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fc7ad3887cd9b6e)}},
		{1, "TX", -1, 7, 2, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3feea12e29c0a362)}},
		{2, "VA", 0, 0, 0, TaskFault{Kind: Crash, Frac: math.Float64frombits(0x3fe0b596b5497291)}},
		{2, "CA", 11, 14, 1, TaskFault{Kind: DBRefusal}},
		{2, "", 0, -1, 0, TaskFault{Kind: DBRefusal}},
		{2, "WY", 299, 0, 3, TaskFault{}},
		{2, "TX", -1, 7, 2, TaskFault{}},
	} {
		m := New(specs[tc.spec])
		if got := m.Task(tc.region, tc.cell, tc.replicate, tc.attempt); got != tc.want {
			t.Errorf("spec %d Task(%q, %d, %d, %d) = %+v, want %+v",
				tc.spec, tc.region, tc.cell, tc.replicate, tc.attempt, got, tc.want)
		}
	}
	if got := math.Float64bits(New(specs[0]).Jitter("VA", 1, 2, 3)); got != 0x3fd4d2e0922c10ac {
		t.Errorf("Jitter drifted: %#x", got)
	}
	m := New(specs[2]) // refusal, crash and pass all occur under this spec
	if allocs := testing.AllocsPerRun(100, func() {
		m.Task("VA", 0, 0, 0)
		m.Task("CA", 11, 14, 1)
		m.Task("WY", 299, 0, 3)
		m.Jitter("VA", 1, 2, 3)
		m.TransferStall("night-configs", 1)
	}); allocs != 0 {
		t.Errorf("fault decisions allocate: %v allocs per run", allocs)
	}
}
