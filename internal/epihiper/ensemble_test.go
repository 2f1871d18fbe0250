package epihiper

import (
	"testing"

	"repro/internal/disease"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

func ensembleSim(t *testing.T, ivs []Intervention, days int) (*Sim, *Result) {
	t.Helper()
	net := testNetwork(t, 50)
	cfg := baseConfig(net, 2000)
	cfg.Days = days
	cfg.Interventions = ivs
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

func TestNodeTraits(t *testing.T) {
	net := testNetwork(t, 51)
	sim, err := New(baseConfig(net, 2100))
	if err != nil {
		t.Fatal(err)
	}
	if sim.NodeTrait("risk", 3) != 0 {
		t.Fatal("unset trait should be 0")
	}
	before := sim.MemoryBytes()
	sim.SetNodeTrait("risk", 3, 0.8)
	if sim.NodeTrait("risk", 3) != 0.8 {
		t.Fatal("trait not stored")
	}
	if sim.NodeTrait("other", 3) != 0 {
		t.Fatal("traits not independent")
	}
	if sim.MemoryBytes() <= before {
		t.Fatal("trait allocation not accounted in memory model")
	}
}

func TestEnsembleOnceAndForEach(t *testing.T) {
	onceCount := 0
	iv := &EnsembleIntervention{
		Label:   "tag-elderly",
		Trigger: OnDay(0),
		Ensemble: ActionEnsemble{
			Target:  TargetAgeBand(disease.Age65Plus),
			Once:    func(s *Sim, day int) { onceCount++ },
			ForEach: OpSetTrait("elderly", 1),
		},
	}
	sim, _ := ensembleSim(t, []Intervention{iv}, 3)
	if onceCount != 1 {
		t.Fatalf("Once ran %d times", onceCount)
	}
	for i := range sim.net.Persons {
		want := 0.0
		if sim.net.Persons[i].AgeGroup() == disease.Age65Plus {
			want = 1
		}
		if sim.NodeTrait("elderly", int32(i)) != want {
			t.Fatalf("person %d trait %v want %v", i, sim.NodeTrait("elderly", int32(i)), want)
		}
	}
}

func TestEnsembleSamplingSplitsTarget(t *testing.T) {
	iv := &EnsembleIntervention{
		Label:   "sample",
		Trigger: OnDay(0),
		Ensemble: ActionEnsemble{
			SampleFrac: 0.5,
			Sampled:    OpSetTrait("group", 1),
			Remainder:  OpSetTrait("group", 2),
		},
	}
	sim, _ := ensembleSim(t, []Intervention{iv}, 2)
	ones, twos := 0, 0
	for pid := int32(0); int(pid) < sim.net.NumNodes(); pid++ {
		switch sim.NodeTrait("group", pid) {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Fatalf("person %d in no group", pid)
		}
	}
	n := sim.net.NumNodes()
	if ones == 0 || twos == 0 {
		t.Fatal("sampling degenerate")
	}
	frac := float64(ones) / float64(n)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("sample fraction %v far from 0.5", frac)
	}
}

func TestEnsembleNestedSampling(t *testing.T) {
	iv := &EnsembleIntervention{
		Label:   "nested",
		Trigger: OnDay(0),
		Ensemble: ActionEnsemble{
			SampleFrac: 0.6,
			Sampled:    OpSetTrait("outer", 1),
			Nested: &ActionEnsemble{
				SampleFrac: 0.5,
				Sampled:    OpSetTrait("inner", 1),
			},
		},
	}
	sim, _ := ensembleSim(t, []Intervention{iv}, 2)
	inner, outer := 0, 0
	for pid := int32(0); int(pid) < sim.net.NumNodes(); pid++ {
		if sim.NodeTrait("inner", pid) == 1 {
			inner++
			if sim.NodeTrait("outer", pid) != 1 {
				t.Fatal("inner sample escaped the outer sample")
			}
		}
		if sim.NodeTrait("outer", pid) == 1 {
			outer++
		}
	}
	if inner == 0 || inner >= outer {
		t.Fatalf("nested sampling wrong: inner %d outer %d", inner, outer)
	}
}

func TestEnsembleDelayedOperation(t *testing.T) {
	iv := &EnsembleIntervention{
		Label:   "delayed-tag",
		Trigger: OnDay(2),
		Ensemble: ActionEnsemble{
			Target:    TargetCounty(topCounty(t)),
			ForEach:   OpSetTrait("tagged", 1),
			DelayDays: 3,
		},
	}
	// Probe trait state per day.
	taggedAt := map[int]bool{}
	probe := &Triggered{
		Label: "probe",
		When:  func(*Sim, int) bool { return true },
		Do: func(s *Sim, day int, r *stats.RNG) {
			county := topCounty(t)
			for i := range s.net.Persons {
				if s.net.Persons[i].CountyFIPS == county {
					taggedAt[day] = s.NodeTrait("tagged", s.net.Persons[i].ID) == 1
					break
				}
			}
		},
	}
	ensembleSim(t, []Intervention{iv, probe}, 8)
	if taggedAt[3] || taggedAt[4] {
		t.Fatal("delayed op ran early")
	}
	if !taggedAt[5] {
		t.Fatal("delayed op never ran (expected day 5 = trigger 2 + delay 3)")
	}
}

// topCounty returns the most populous county of the shared test network.
func topCounty(t *testing.T) int32 {
	t.Helper()
	net := testNetwork(t, 50)
	counts := map[int32]int{}
	for i := range net.Persons {
		counts[net.Persons[i].CountyFIPS]++
	}
	var best int32
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}

// A vaccination campaign expressed as an action ensemble cuts the attack
// rate — the Appendix A "vaccinating nodes (which can be modeled as node
// deletions)".
func TestEnsembleVaccinationCampaign(t *testing.T) {
	attack := func(frac float64) float64 {
		var ivs []Intervention
		if frac > 0 {
			ivs = []Intervention{&EnsembleIntervention{
				Label:   "vaccinate",
				Trigger: OnDay(0),
				Ensemble: ActionEnsemble{
					SampleFrac: frac,
					Sampled:    OpVaccinate(),
				},
			}}
		}
		total := 0.0
		for rep := 0; rep < 3; rep++ {
			net := testNetwork(t, 50)
			cfg := baseConfig(net, 3000+uint64(rep))
			cfg.Days = 90
			cfg.Interventions = ivs
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
		return total / 3
	}
	base := attack(0)
	vax := attack(0.6)
	if vax >= base {
		t.Fatalf("60%% vaccination did not reduce attack: %v vs %v", vax, base)
	}
	if base > 0.2 && vax > 0.6*base {
		t.Fatalf("vaccination effect too weak: %v vs %v", vax, base)
	}
}

func TestTargetInStateAndTraitAbove(t *testing.T) {
	net := testNetwork(t, 52)
	sim, err := New(baseConfig(net, 2200))
	if err != nil {
		t.Fatal(err)
	}
	// All seeded persons are Exposed at day 0.
	exposed := TargetInState(disease.Exposed)(sim, 0)
	if len(exposed) == 0 {
		t.Fatal("no exposed persons found after seeding")
	}
	for _, pid := range exposed {
		if sim.health[pid] != disease.Exposed {
			t.Fatal("target selected wrong state")
		}
	}
	sim.SetNodeTrait("score", 5, 2.5)
	hits := TargetTraitAbove("score", 2)(sim, 0)
	if len(hits) != 1 || hits[0] != 5 {
		t.Fatalf("trait target %v want [5]", hits)
	}
}

func TestOpScaleInfectivityAndDisableContext(t *testing.T) {
	net := testNetwork(t, 53)
	sim, err := New(baseConfig(net, 2300))
	if err != nil {
		t.Fatal(err)
	}
	OpScaleInfectivity(0.5)(sim, 0)
	if sim.infectivityScale[0] != 0.5 {
		t.Fatalf("infectivity scale %v", sim.infectivityScale[0])
	}
	OpDisableContext(synthpop.CtxWork)(sim, 0)
	if sim.ctxMask[0]&(1<<uint8(synthpop.CtxWork)) != 0 {
		t.Fatal("work context not disabled")
	}
}
