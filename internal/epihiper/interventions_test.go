package epihiper

import (
	"testing"

	"repro/internal/disease"
	"repro/internal/synthpop"
)

// runWith executes the base scenario with the given interventions and a
// longer horizon, returning the mean attack rate over a few replicates so
// intervention effects are not confounded by single-run noise.
func runWith(t *testing.T, net *synthpop.Network, ivs func() []Intervention, seed uint64) float64 {
	t.Helper()
	const reps = 4
	total := 0.0
	for rep := uint64(0); rep < reps; rep++ {
		cfg := baseConfig(net, seed+rep)
		cfg.Days = 90
		if ivs != nil {
			cfg.Interventions = ivs()
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		total += Attack(res, net.NumNodes())
	}
	return total / reps
}

func TestStayAtHomeReducesAttack(t *testing.T) {
	net := testNetwork(t, 20)
	base := runWith(t, net, nil, 100)
	sh := runWith(t, net, func() []Intervention {
		return []Intervention{&StayAtHome{StartDay: 5, EndDay: 90, Compliance: 0.9}}
	}, 100)
	if sh >= base {
		t.Fatalf("SH did not reduce attack rate: %v vs %v", sh, base)
	}
	if base > 0.05 && sh > 0.7*base {
		t.Fatalf("90%% SH only reduced attack from %v to %v", base, sh)
	}
}

func TestVHIReducesAttack(t *testing.T) {
	net := testNetwork(t, 21)
	base := runWith(t, net, nil, 200)
	vhi := runWith(t, net, func() []Intervention {
		return []Intervention{&VoluntaryHomeIsolation{Compliance: 0.9, IsolationDays: 14}}
	}, 200)
	if vhi >= base {
		t.Fatalf("VHI did not reduce attack rate: %v vs %v", vhi, base)
	}
}

func TestSchoolClosureDisablesSchoolTransmission(t *testing.T) {
	net := testNetwork(t, 22)
	cfg := baseConfig(net, 300)
	cfg.Days = 30
	cfg.Interventions = []Intervention{&SchoolClosure{StartDay: 0, EndDay: 30}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// With SC active the effective mask of every person excludes school.
	for pid := int32(0); pid < 20; pid++ {
		if sim.effMask(pid)&(1<<uint8(synthpop.CtxSchool)) != 0 {
			t.Fatal("school context live during closure")
		}
		if sim.effMask(pid)&(1<<uint8(synthpop.CtxCollege)) != 0 {
			t.Fatal("college context live during closure")
		}
	}
}

func TestSchoolClosureReopens(t *testing.T) {
	net := testNetwork(t, 23)
	cfg := baseConfig(net, 301)
	cfg.Days = 25
	cfg.Interventions = []Intervention{&SchoolClosure{StartDay: 5, EndDay: 20}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.effMask(0)&(1<<uint8(synthpop.CtxSchool)) == 0 {
		t.Fatal("school context still closed after EndDay")
	}
}

func TestPartialReopenReleasesSome(t *testing.T) {
	net := testNetwork(t, 24)
	sh := &StayAtHome{StartDay: 2, EndDay: 80, Compliance: 0.8}
	ro := &PartialReopen{SH: sh, ReopenDay: 10, Level: 0.5}
	cfg := baseConfig(net, 400)
	cfg.Days = 15
	cfg.Interventions = []Intervention{sh, ro}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	compliant := sh.compliant
	if len(compliant) == 0 {
		t.Fatal("no compliant persons sampled")
	}
	released, confined := 0, 0
	for _, pid := range compliant {
		if sim.ctxMask[pid]&(1<<uint8(synthpop.CtxWork)) != 0 {
			released++
		} else {
			confined++
		}
	}
	if released == 0 || confined == 0 {
		t.Fatalf("partial reopen not partial: released %d confined %d", released, confined)
	}
	frac := float64(released) / float64(len(compliant))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("release fraction %v far from 0.5", frac)
	}
}

func TestPulsingShutdownAlternates(t *testing.T) {
	net := testNetwork(t, 25)
	ps := &PulsingShutdown{StartDay: 0, EndDay: 60, PeriodDays: 10, Compliance: 0.99}
	cfg := baseConfig(net, 500)
	cfg.Days = 45
	cfg.Interventions = []Intervention{ps}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Pulses of period 10 alternate shutdown/open: [0,10) shut, [10,20)
	// open, ... so at day 44 ((44/10)=4, even) the shutdown is active and
	// nearly everyone (compliance 0.99) should be home-confined.
	confined := 0
	for pid := int32(0); int(pid) < net.NumNodes(); pid++ {
		if sim.ctxMask[pid] == homeOnlyMask {
			confined++
		}
	}
	if float64(confined) < 0.9*float64(net.NumNodes()) {
		t.Fatalf("pulse should be active at day 44: only %d/%d confined", confined, net.NumNodes())
	}
}

func TestPulsingShutdownReducesAttack(t *testing.T) {
	net := testNetwork(t, 26)
	base := runWith(t, net, nil, 600)
	ps := runWith(t, net, func() []Intervention {
		return []Intervention{&PulsingShutdown{StartDay: 5, EndDay: 90, PeriodDays: 14, Compliance: 0.9}}
	}, 600)
	if ps >= base {
		t.Fatalf("PS did not reduce attack: %v vs %v", ps, base)
	}
}

func TestContactTracingNames(t *testing.T) {
	if (&ContactTracing{Distance: 1}).Name() != "D1CT" {
		t.Error("D1CT name")
	}
	if (&ContactTracing{Distance: 2}).Name() != "D2CT" {
		t.Error("D2CT name")
	}
}

func TestContactTracingIsolates(t *testing.T) {
	net := testNetwork(t, 27)
	cfg := baseConfig(net, 700)
	cfg.Days = 40
	ct := &ContactTracing{Distance: 1, DetectProb: 1.0, TraceCompliance: 1.0, IsolationDays: 14}
	cfg.Interventions = []Intervention{ct}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	isolated := 0
	for pid := int32(0); int(pid) < net.NumNodes(); pid++ {
		if sim.isolatedUntil[pid] > 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("contact tracing isolated nobody")
	}
}

func TestD2CTIsolatesMoreThanD1CT(t *testing.T) {
	net := testNetwork(t, 28)
	countIsolated := func(distance int) int {
		cfg := baseConfig(net, 800)
		cfg.Days = 30
		cfg.Interventions = []Intervention{
			&ContactTracing{Distance: distance, DetectProb: 1, TraceCompliance: 1, IsolationDays: 14},
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for pid := int32(0); int(pid) < net.NumNodes(); pid++ {
			if sim.isolatedUntil[pid] > 0 {
				n++
			}
		}
		return n
	}
	d1 := countIsolated(1)
	d2 := countIsolated(2)
	if d2 <= d1 {
		t.Fatalf("D2CT (%d) should isolate more than D1CT (%d)", d2, d1)
	}
}

func TestTestAndIsolateSchedulesDelayedIsolation(t *testing.T) {
	net := testNetwork(t, 29)
	cfg := baseConfig(net, 900)
	cfg.Days = 40
	cfg.Interventions = []Intervention{&TestAndIsolate{DailyDetectRate: 1.0, IsolationDays: 14}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	isolated := 0
	for pid := int32(0); int(pid) < net.NumNodes(); pid++ {
		if sim.isolatedUntil[pid] > 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("TA isolated nobody despite full detection")
	}
}

func TestMaskMandateReducesAttack(t *testing.T) {
	net := testNetwork(t, 33)
	base := runWith(t, net, nil, 1500)
	masked := runWith(t, net, func() []Intervention {
		return []Intervention{&MaskMandate{StartDay: 5, EndDay: 90, WeightFactor: 0.4}}
	}, 1500)
	if masked >= base {
		t.Fatalf("mask mandate did not reduce attack: %v vs %v", masked, base)
	}
	if base > 0.1 && masked > 0.8*base {
		t.Fatalf("60%% weight reduction only cut attack from %v to %v", base, masked)
	}
}

func TestMaskMandateRestoresWeights(t *testing.T) {
	net := testNetwork(t, 34)
	cfg := baseConfig(net, 1600)
	cfg.Days = 30
	cfg.Interventions = []Intervention{&MaskMandate{StartDay: 5, EndDay: 20, WeightFactor: 0.5}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range nonHomeContexts {
		if sim.ctxWeight[c] != 1 {
			t.Fatalf("context %v weight %v not restored", c, sim.ctxWeight[c])
		}
	}
	if sim.ctxWeight[synthpop.CtxHome] != 1 {
		t.Fatal("home weight should never change")
	}
}

// TestNonHomeMaskIsNonHomeContexts: stay-at-home, partial reopening and
// pulsing shutdown switch a person's non-home contexts with one write of
// nonHomeMask. Its bits must be exactly nonHomeContexts', so the write
// leaves every mask as a SetContextEnabled call per context would.
func TestNonHomeMaskIsNonHomeContexts(t *testing.T) {
	var m uint8
	for _, c := range nonHomeContexts {
		m |= 1 << uint8(c)
	}
	if m != nonHomeMask || m&homeOnlyMask != 0 || m|homeOnlyMask != allContexts {
		t.Fatalf("nonHomeMask %08b, nonHomeContexts %08b, home %08b, all %08b", nonHomeMask, m, homeOnlyMask, allContexts)
	}
}

func TestSetContextWeightClamps(t *testing.T) {
	net := testNetwork(t, 35)
	sim, err := New(baseConfig(net, 1700))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetContextWeight(synthpop.CtxWork, -3)
	if sim.ctxWeight[synthpop.CtxWork] != 0 {
		t.Fatal("negative weight not clamped to 0")
	}
}

func TestIsolationConfinesToHome(t *testing.T) {
	net := testNetwork(t, 30)
	cfg := baseConfig(net, 1000)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Isolate(0, 10)
	if !sim.isIsolated(0) {
		t.Fatal("person not isolated")
	}
	if sim.effMask(0) != homeOnlyMask {
		t.Fatalf("isolated mask %b want home-only", sim.effMask(0))
	}
	sim.day = 10
	if sim.isIsolated(0) {
		t.Fatal("isolation did not expire")
	}
	if sim.effMask(0) != allContexts {
		t.Fatal("mask not restored after isolation")
	}
}

func TestBaseCaseInterventionSet(t *testing.T) {
	ivs := BaseCaseInterventions(10, 60, 0.6, 0.7)
	if len(ivs) != 3 {
		t.Fatalf("%d interventions want 3 (VHI+SC+SH)", len(ivs))
	}
	names := map[string]bool{}
	for _, iv := range ivs {
		names[iv.Name()] = true
	}
	for _, want := range []string{"VHI", "SC", "SH"} {
		if !names[want] {
			t.Fatalf("missing %s in base case", want)
		}
	}
}

// Higher SH compliance must cost more dynamic memory (Figure 10 left).
func TestMemoryScalesWithCompliance(t *testing.T) {
	net := testNetwork(t, 31)
	peak := func(compliance float64) int64 {
		cfg := baseConfig(net, 1100)
		cfg.Days = 30
		cfg.Interventions = []Intervention{&StayAtHome{StartDay: 5, EndDay: 30, Compliance: compliance}}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakMemoryBytes
	}
	low := peak(0.2)
	high := peak(0.9)
	if high <= low {
		t.Fatalf("memory did not scale with compliance: %d vs %d", high, low)
	}
}

func TestInterventionsDeterministic(t *testing.T) {
	net := testNetwork(t, 32)
	run := func() int64 {
		cfg := baseConfig(net, 1200)
		cfg.Days = 60
		cfg.Interventions = []Intervention{
			&VoluntaryHomeIsolation{Compliance: 0.5},
			&SchoolClosure{StartDay: 5, EndDay: 50},
			&StayAtHome{StartDay: 10, EndDay: 40, Compliance: 0.45},
			&ContactTracing{Distance: 1, DetectProb: 0.3, TraceCompliance: 0.5},
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalInfections
	}
	if run() != run() {
		t.Fatal("intervention stack not deterministic")
	}
}

var _ = disease.Dead // silence potential unused import in refactors

// isIsolated reports whether the person is currently isolated.
func (s *Sim) isIsolated(pid int32) bool { return int32(s.day) < s.isolatedUntil[pid] }
