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
// The home tables are recounted the same way: the infectious neighbors over
// the node's own half-edges whose source context is home, and the home-only
// bit from the cached mask. Before the tables are started both bitsets must
// be empty, so the frontier filter is a no-op.
func requireCountersExact(t *testing.T, label string, sim *Sim) {
	t.Helper()
	bit := func(words []uint64, pid int32) bool { return words[pid>>6]>>(uint(pid)&63)&1 == 1 }
	for pid := int32(0); int(pid) < sim.net.NumNodes(); pid++ {
		var count, home int32
		var sum int64
		for k := sim.csr.Offsets[pid]; k < sim.csr.Offsets[pid+1]; k++ {
			e := sim.csr.At(k)
			if sim.model.IsInfectious(sim.health[e.Neighbor]) {
				count++
				sum += synthpop.QuantTW(float64(e.DurationMin) / 1440.0 * float64(e.Weight))
				if e.SrcContext == synthpop.CtxHome {
					home++
				}
			}
		}
		if sim.homeNbr == nil {
			if bit(sim.homeOnly, pid) || bit(sim.homeRisk, pid) {
				t.Fatalf("%s: home bits of %d set before the home tables started", label, pid)
			}
		} else {
			if got := sim.homeNbr[pid]; got != home {
				t.Fatalf("%s: home count of %d is %d, recount %d", label, pid, got, home)
			}
			if got := bit(sim.homeRisk, pid); got != (home > 0) {
				t.Fatalf("%s: home risk bit of %d is %v with %d infectious home contacts", label, pid, got, home)
			}
			if got, want := bit(sim.homeOnly, pid), sim.effMaskT[pid]&^homeOnlyMask == 0; got != want {
				t.Fatalf("%s: home-only bit of %d is %v, mask %07b", label, pid, got, sim.effMaskT[pid])
			}
		}
		if got := sim.infNbrCount(pid); got != count {
			t.Fatalf("%s: counter of %d is %d, recount %d", label, pid, got, count)
		}
		if got, want := sim.infContactTW(pid), float64(sum)*quantTWUnit; got != want {
			t.Fatalf("%s: infectious-contact T·w of %d is %g, recount %g", label, pid, got, want)
		}
		if atRisk := bit(sim.riskBits, pid); atRisk != (count > 0) {
			t.Fatalf("%s: at-risk bit of %d is %v with %d infectious neighbors", label, pid, atRisk, count)
		}
	}
}

// The incremental infectious-neighbor counters must exactly match a
// from-scratch recount after any run — the invariant the transmission
// fast-path depends on. The isolations start the home tables mid-run; on
// more than one shard their updates also cross shard lines, and a restore
// (rebuildDerived) or a fork at day 12 must carry them.
func TestInfectiousNeighborCountersConsistent(t *testing.T) {
	net := testNetwork(t, 70)
	for _, shards := range []int{1, 2, 4} {
		for _, days := range []int{1, 17, 80} {
			label := fmt.Sprintf("shards=%d/days=%d", shards, days)
			cfg := baseConfig(net, 5000)
			cfg.Days, cfg.Parallelism = days, shards
			cfg.Interventions = []Intervention{
				&VoluntaryHomeIsolation{Compliance: 0.5, IsolationDays: 14},
				&ContactTracing{Distance: 1, DetectProb: 0.4, TraceCompliance: 0.5},
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if days < 12 {
				if _, err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				requireCountersExact(t, label, sim)
				continue
			}
			pre, err := sim.RunPrefix(12)
			if err != nil {
				t.Fatal(err)
			}
			if sim.homeNbr == nil {
				t.Fatalf("%s: no isolation by day 12; the home tables are untested", label)
			}
			for _, mode := range branchModes {
				b, err := mode.branch(sim, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if b.homeNbr == nil {
					t.Fatalf("%s/%s: the branch dropped the home tables of confined persons", label, mode.name)
				}
				requireCountersExact(t, label+"/"+mode.name+"@12", b)
				if _, err := b.RunSuffix(pre); err != nil {
					t.Fatal(err)
				}
				requireCountersExact(t, label+"/"+mode.name, b)
			}
		}
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
