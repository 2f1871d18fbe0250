package epihiper

import (
	"fmt"
	"testing"

	"repro/internal/synthpop"
)

// requireCountersExact recounts every node's infectious-contact word from
// its row's half-edge records: the neighbor count and the fixed-point ΣT·w (taken
// from the node's OWN half-edges, the side the scan reads, and quantised from
// their Dur and Weight, never read from the Q table the kernel adds) must
// both match what the kernel maintained incrementally from the neighbors' side.
func requireCountersExact(t *testing.T, label string, sim *Sim) {
	t.Helper()
	for pid := int32(0); int(pid) < sim.net.NumNodes(); pid++ {
		var count int32
		var sum int64
		for k := sim.csr.Offsets[pid]; k < sim.csr.Offsets[pid+1]; k++ {
			e := sim.csr.At(k)
			if sim.model.IsInfectious(sim.health[e.Neighbor]) {
				count++
				sum += synthpop.QuantTW(float64(e.DurationMin) / 1440.0 * float64(e.Weight))
			}
		}
		if got := sim.infNbrCount(pid); got != count {
			t.Fatalf("%s: counter of %d is %d, recount %d", label, pid, got, count)
		}
		if got, want := sim.infContactTW(pid), float64(sum)*quantTWUnit; got != want {
			t.Fatalf("%s: infectious-contact T·w of %d is %g, recount %g", label, pid, got, want)
		}
		if atRisk := sim.riskBits[pid>>6]>>(uint(pid)&63)&1 == 1; atRisk != (count > 0) {
			t.Fatalf("%s: at-risk bit of %d is %v with %d infectious neighbors", label, pid, atRisk, count)
		}
	}
}

// The incremental infectious-neighbor counters must exactly match a
// from-scratch recount after any run — the invariant the transmission
// fast-path depends on.
func TestInfectiousNeighborCountersConsistent(t *testing.T) {
	net := testNetwork(t, 70)
	for _, days := range []int{1, 17, 80} {
		cfg := baseConfig(net, 5000)
		cfg.Days = days
		cfg.Interventions = []Intervention{
			&VoluntaryHomeIsolation{Compliance: 0.5, IsolationDays: 14},
			&ContactTracing{Distance: 1, DetectProb: 0.4, TraceCompliance: 0.5},
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		requireCountersExact(t, fmt.Sprintf("days=%d", days), sim)
	}
}

// The counters also hold under reinfection dynamics (waning immunity).
func TestInfectiousCountersUnderWaning(t *testing.T) {
	net := testNetwork(t, 71)
	cfg := baseConfig(net, 5100)
	cfg.Days = 150
	cfg.Model = covid19Waning(25)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	requireCountersExact(t, "waning", sim)
}
