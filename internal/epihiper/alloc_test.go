package epihiper

import (
	"testing"

	"repro/internal/disease"
	"repro/internal/stats"
)

// This file pins the transmission kernel's allocation contract: once the
// exposure and scratch buffers have grown to steady-state capacity, a full
// transmission pass allocates nothing. The kernel's per-node RNG streams
// live on the stack (stats.Seeded / stats.FirstFloat64), the per-edge
// propensities go to the caller-owned scratch buffer, and every table it
// reads (CSR, effInf, effMaskT, effInfBits) is preallocated — so a regression
// here means someone reintroduced a heap allocation into the hot loop.

// steadyStateSim builds a simulation frozen mid-epidemic: every 20th person
// is moved into the model's most infectious state, so the kernel sees a
// realistic mix of skipped, gated and contributing edges.
func steadyStateSim(tb testing.TB) *Sim {
	net := goldenNetwork(tb)
	sim, err := New(Config{
		Model:       disease.COVID19(),
		Network:     net,
		Days:        30,
		Parallelism: 1,
		Seed:        99,
	})
	if err != nil {
		tb.Fatal(err)
	}
	infState := disease.State(0)
	for st := disease.State(0); st < disease.NumStates; st++ {
		if sim.model.Attrs[st].Infectivity > sim.model.Attrs[infState].Infectivity {
			infState = st
		}
	}
	for pid := int32(0); pid < int32(net.NumNodes()); pid += 20 {
		sim.applyTransition(&sim.serial, pid, sim.health[pid], infState, NoInfector, 0)
	}
	sim.foldSerial(0)
	sim.prepareTick()
	return sim
}

// TestTransmissionPhaseZeroAlloc requires zero heap allocations per
// transmission pass after buffer warm-up — the "allocation-free hot loop"
// acceptance criterion, checked directly rather than inferred from
// -benchmem deltas.
func TestTransmissionPhaseZeroAlloc(t *testing.T) {
	sim := steadyStateSim(t)
	part := sim.parts[0]
	var buf []exposure
	var scratch []propEntry
	buf, scratch = sim.transmissionPhase(part, 0, buf[:0], scratch[:0])
	if len(buf) == 0 {
		t.Fatal("warm-up pass produced no exposures; the fixture is not exercising the kernel")
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf, scratch = sim.transmissionPhase(part, 0, buf[:0], scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("transmission phase allocates %.1f times per pass; want 0", allocs)
	}
}

// BenchmarkTransmissionPhase times one kernel pass over the ~4.3k-person
// golden network with 5% of persons infectious; run with -benchmem, the
// 0 B/op / 0 allocs/op columns are the steady-state record cited in
// EXPERIMENTS.md.
func BenchmarkTransmissionPhase(b *testing.B) {
	sim := steadyStateSim(b)
	part := sim.parts[0]
	var buf []exposure
	var scratch []propEntry
	buf, scratch = sim.transmissionPhase(part, 0, buf[:0], scratch[:0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, scratch = sim.transmissionPhase(part, 0, buf[:0], scratch[:0])
	}
}

// dwellTypesModel is a four-state chain whose three dwell times are the
// three Table III distribution types, with infectious middle states so every
// transition also walks the neighbor-update path.
func dwellTypesModel(tb testing.TB) *disease.Model {
	disc, err := stats.NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.5, 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	m := &disease.Model{Name: "dwell-types", Transmissibility: 0.2, ExposedState: disease.Exposed}
	m.Attrs[disease.Susceptible] = disease.StateAttr{Susceptibility: 1}
	m.Attrs[disease.Presymptomatic] = disease.StateAttr{Infectivity: 0.8}
	m.Attrs[disease.Symptomatic] = disease.StateAttr{Infectivity: 1}
	for _, tr := range []struct {
		from, to disease.State
		dwell    stats.Dist
	}{
		{disease.Exposed, disease.Presymptomatic, stats.Fixed{V: 2}},
		{disease.Presymptomatic, disease.Symptomatic, disc},
		{disease.Symptomatic, disease.Recovered, stats.TruncNormal{Mean: 5, SD: 1, Lo: 0.5, Hi: 60}},
	} {
		m.AddTransition(disease.Transition{
			From: tr.from, To: tr.to,
			Prob:  [disease.NumAgeGroups]float64{1, 1, 1, 1, 1},
			Dwell: [disease.NumAgeGroups]stats.Dist{tr.dwell, tr.dwell, tr.dwell, tr.dwell, tr.dwell},
		})
	}
	return m
}

// TestMutatePhaseZeroAlloc pins the mutate phase's allocation contract, the
// twin of the transmission phase's: a transition allocates nothing whichever
// of the Table III dwell types it samples — the generator stays on the
// stack, the event, outbox and calendar buffers are the shard's — and a
// whole warmed tick (transmit, mutate, merge) allocates nothing either.
func TestMutatePhaseZeroAlloc(t *testing.T) {
	net := goldenNetwork(t)
	for _, shards := range []int{1, 2} {
		sim, err := New(Config{Model: dwellTypesModel(t), Network: net, Days: 30, Parallelism: shards, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sh := &sim.shards[0]
		pid := sh.first + 100
		// Entering a state samples the dwell of the state's out-transition.
		for _, to := range []disease.State{disease.Exposed, disease.Presymptomatic, disease.Symptomatic} {
			allocs := testing.AllocsPerRun(50, func() {
				sh.events = sh.events[:0]
				for d := range sh.outbox {
					sh.outbox[d] = sh.outbox[d][:0]
				}
				sim.applyTransition(sh, pid, disease.Susceptible, to, NoInfector, 3)
			})
			if allocs != 0 {
				t.Errorf("shards=%d: a transition into %v allocates %.1f times; want 0", shards, to, allocs)
			}
		}
	}

	sim := steadyStateSim(t)
	sh := &sim.shards[0]
	res := sim.newResult()
	day := 0
	tick := func() {
		sim.day = day
		sim.todayEvents = sim.todayEvents[:0]
		sim.runPhase(phTransmit, sh)
		sim.runPhase(phMutate, sh)
		sim.mergeTick(res, day)
		day++
	}
	// Warm-up: ride the epidemic over its peak, so the event and exposure
	// buffers are at capacity and the calendar's free list is stocked.
	for day < 14 {
		tick()
	}
	if res.TotalInfections == 0 {
		t.Fatal("warm-up produced no infections; the fixture is not exercising the kernel")
	}
	before := res.TotalInfections
	if allocs := testing.AllocsPerRun(10, tick); allocs != 0 {
		t.Errorf("a warmed tick allocates %.1f times; want 0", allocs)
	}
	if res.TotalInfections == before {
		t.Fatal("measured ticks infected nobody; the fixture is not exercising the kernel")
	}
}
