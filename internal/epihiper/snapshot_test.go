package epihiper

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disease"
	"repro/internal/synthpop"
)

// This file gates the snapshot subsystem on one obligation: branching a run
// from a checkpoint must be bit-identical to running the same configuration
// from scratch — the transition stream, the daily summaries, the cumulative
// counters and the final per-person state all included. The what-if fan-out
// in internal/core shares simulated prefixes through these snapshots, so any
// state the codec loses would silently skew every counter-factual forecast.

// smallNetwork builds a ~400-person VA network cheap enough for many
// randomized trials.
func smallNetwork(t testing.TB) *synthpop.Network {
	t.Helper()
	va, err := synthpop.StateByCode("VA")
	if err != nil {
		t.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(777)
	cfg.Scale = 20000
	net, err := synthpop.Generate(va, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// randomStack samples an intervention stack from the full snapshotable
// repertoire: stateful compliance sets (SH, PS), pending-isolation
// schedulers (TA), TodayEvents readers (VHI, CT), global-context togglers
// (SC, weekend), mask weights and a Vars/nodeTraits-writing ensemble.
func randomStack(r *rand.Rand, days int) []Intervention {
	var ivs []Intervention
	if r.Intn(2) == 0 {
		ivs = append(ivs, &WeekendSchedule{SundayReligion: r.Intn(2) == 0})
	}
	if r.Intn(2) == 0 {
		start := 1 + r.Intn(days/2)
		ivs = append(ivs, &SchoolClosure{StartDay: start, EndDay: start + 5 + r.Intn(days)})
	}
	if r.Intn(2) == 0 {
		start := 1 + r.Intn(days/2)
		ivs = append(ivs, &StayAtHome{StartDay: start, EndDay: start + 5 + r.Intn(days), Compliance: 0.2 + 0.6*r.Float64()})
	}
	if r.Intn(2) == 0 {
		ivs = append(ivs, &VoluntaryHomeIsolation{Compliance: 0.2 + 0.6*r.Float64(), IsolationDays: 5 + r.Intn(10)})
	}
	if r.Intn(2) == 0 {
		ivs = append(ivs, &TestAndIsolate{DailyDetectRate: 0.05 + 0.2*r.Float64(), IsolationDays: 5 + r.Intn(10)})
	}
	if r.Intn(2) == 0 {
		start := 1 + r.Intn(days/2)
		ivs = append(ivs, &PulsingShutdown{StartDay: start, EndDay: days - 1, PeriodDays: 3 + r.Intn(10), Compliance: 0.2 + 0.5*r.Float64()})
	}
	if r.Intn(2) == 0 {
		ivs = append(ivs, &ContactTracing{Distance: 1 + r.Intn(2), DetectProb: 0.1 + 0.4*r.Float64(), TraceCompliance: 0.5, IsolationDays: 7})
	}
	if r.Intn(2) == 0 {
		start := 1 + r.Intn(days/2)
		ivs = append(ivs, &MaskMandate{StartDay: start, EndDay: days, WeightFactor: 0.5 + 0.4*r.Float64()})
	}
	if r.Intn(2) == 0 {
		fire := 1 + r.Intn(days-1)
		ivs = append(ivs, &EnsembleIntervention{
			Label:   "traits",
			Trigger: OnDay(fire),
			Ensemble: ActionEnsemble{
				Once:       func(s *Sim, day int) { s.Vars["alert_day"] = float64(day) },
				SampleFrac: 0.3,
				Sampled:    OpSetTrait("priority", 1),
				Remainder:  OpScaleInfectivity(0.9),
			},
		})
	}
	return ivs
}

// snapCfg assembles a config over the small network.
func snapCfg(net *synthpop.Network, days, par int, seed uint64, ivs []Intervention, rec Recorder) Config {
	return Config{
		Model:         disease.COVID19(),
		Network:       net,
		Days:          days,
		Parallelism:   par,
		Seed:          seed,
		Seeds:         seedAll(net, 6),
		Interventions: ivs,
		Recorder:      rec,
	}
}

// requireFinalStateEqual compares every piece of simulation state the
// epidemiological output contract depends on.
func requireFinalStateEqual(t *testing.T, want, got *Sim) {
	t.Helper()
	if !reflect.DeepEqual(want.health, got.health) {
		t.Error("final health states differ")
	}
	if !reflect.DeepEqual(want.isolatedUntil, got.isolatedUntil) {
		t.Error("isolation deadlines differ")
	}
	if !reflect.DeepEqual(want.Vars, got.Vars) {
		t.Errorf("Vars differ: want %v, got %v", want.Vars, got.Vars)
	}
	if !reflect.DeepEqual(want.nodeTraits, got.nodeTraits) {
		t.Error("node traits differ")
	}
	if want.cumByState != got.cumByState {
		t.Errorf("cumulative counters differ: want %v, got %v", want.cumByState, got.cumByState)
	}
	if want.currentByState != got.currentByState {
		t.Errorf("occupancy counters differ: want %v, got %v", want.currentByState, got.currentByState)
	}
	if want.ivRNG.State() != got.ivRNG.State() {
		t.Error("intervention RNG positions differ")
	}
}

// TestSnapshotEquivalenceProperty is the randomized equivalence gate:
// for random horizons, seeds, parallelism, pivot ticks and intervention
// stacks, Snapshot at the pivot + Restore into a fresh sim + run-to-end
// must reproduce the from-scratch run bit for bit — the same transition
// stream (prefix + suffix folded into one hash), the same Result digest
// and the same final state.
func TestSnapshotEquivalenceProperty(t *testing.T) {
	net := smallNetwork(t)
	trials := 10
	if testing.Short() {
		trials = 3
	}
	root := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < trials; trial++ {
		trialSeed := root.Int63()
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(trialSeed))
			days := 25 + r.Intn(26)
			pivot := 1 + r.Intn(days-1)
			simSeed := r.Uint64()
			par := 1 + 3*r.Intn(2) // 1 or 4
			// The restored branch runs at an independently drawn shard
			// count: snapshots are canonical-node-order and must cross
			// shard layouts freely.
			parB := []int{1, 2, 4, 8}[r.Intn(4)]
			stackSeed := r.Int63()
			mkStack := func() []Intervention {
				return randomStack(rand.New(rand.NewSource(stackSeed)), days)
			}

			recRef := newHashingRecorder()
			simRef, err := New(snapCfg(net, days, par, simSeed, mkStack(), recRef))
			if err != nil {
				t.Fatal(err)
			}
			resRef, err := simRef.Run()
			if err != nil {
				t.Fatal(err)
			}

			recSplit := newHashingRecorder()
			simA, err := New(snapCfg(net, days, par, simSeed, mkStack(), recSplit))
			if err != nil {
				t.Fatal(err)
			}
			preRes, err := simA.RunPrefix(pivot)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := simA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			simB, err := NewFromSnapshot(snapCfg(net, days, parB, simSeed, mkStack(), recSplit), snap)
			if err != nil {
				t.Fatal(err)
			}
			if simB.ranTo != pivot {
				t.Fatalf("restored sim at day %d, want %d", simB.ranTo, pivot)
			}
			resSplit, err := simB.RunSuffix(preRes)
			if err != nil {
				t.Fatal(err)
			}

			if recRef.count == 0 {
				t.Fatalf("days=%d pivot=%d: reference run produced no events; the trial is vacuous", days, pivot)
			}
			if recRef.h != recSplit.h || recRef.count != recSplit.count {
				t.Errorf("days=%d pivot=%d par=%d→%d: transition streams differ: scratch %d events hash %#x, branched %d events hash %#x",
					days, pivot, par, parB, recRef.count, recRef.h, recSplit.count, recSplit.h)
			}
			if dRef, dSplit := resultDigest(resRef), resultDigest(resSplit); dRef != dSplit {
				t.Errorf("days=%d pivot=%d par=%d→%d: result digests differ: scratch %#x, branched %#x",
					days, pivot, par, parB, dRef, dSplit)
			}
			requireFinalStateEqual(t, simRef, simB)
		})
	}
}

// TestSnapshotBranchMatchesSwap pins the two branch mechanics against each
// other: restoring a checkpoint under a different intervention stack must
// equal running the original stack to the pivot and swapping the stack
// in-place. The what-if workflow uses the first as its shared path and the
// second as its from-scratch oracle, so they must never diverge.
func TestSnapshotBranchMatchesSwap(t *testing.T) {
	net := smallNetwork(t)
	const days, pivot = 50, 20
	baseStack := func() []Intervention {
		return append(BaseCaseInterventions(10, days, 0.3, 0.4),
			&TestAndIsolate{DailyDetectRate: 0.1, IsolationDays: 7})
	}
	branchStack := func() []Intervention {
		return append(BaseCaseInterventions(10, 30, 0.3, 0.4),
			&MaskMandate{StartDay: pivot, EndDay: days, WeightFactor: 0.7},
			&ContactTracing{Distance: 1, DetectProb: 0.3, TraceCompliance: 0.6, IsolationDays: 7})
	}

	recSnap := newHashingRecorder()
	simA, err := New(snapCfg(net, days, 2, 99, baseStack(), recSnap))
	if err != nil {
		t.Fatal(err)
	}
	preA, err := simA.RunPrefix(pivot)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := simA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewFromSnapshot(snapCfg(net, days, 2, 99, branchStack(), recSnap), snap)
	if err != nil {
		t.Fatal(err)
	}
	resSnap, err := simB.RunSuffix(preA)
	if err != nil {
		t.Fatal(err)
	}

	recSwap := newHashingRecorder()
	sim2, err := New(snapCfg(net, days, 2, 99, baseStack(), recSwap))
	if err != nil {
		t.Fatal(err)
	}
	pre2, err := sim2.RunPrefix(pivot)
	if err != nil {
		t.Fatal(err)
	}
	sim2.SwapInterventions(branchStack())
	resSwap, err := sim2.RunSuffix(pre2)
	if err != nil {
		t.Fatal(err)
	}

	if recSnap.h != recSwap.h || recSnap.count != recSwap.count {
		t.Errorf("transition streams differ: snapshot-branch %d events hash %#x, swap %d events hash %#x",
			recSnap.count, recSnap.h, recSwap.count, recSwap.h)
	}
	if dSnap, dSwap := resultDigest(resSnap), resultDigest(resSwap); dSnap != dSwap {
		t.Errorf("result digests differ: snapshot-branch %#x, swap %#x", dSnap, dSwap)
	}
	requireFinalStateEqual(t, sim2, simB)
}

// TestSnapshotCarriesPendingIsolations regresses a deep-copy hazard: an
// isolation scheduled for a post-pivot day (TestAndIsolate's 1–3 day test
// turnaround) must survive the snapshot round-trip, or branched runs
// silently drop in-flight test results.
func TestSnapshotCarriesPendingIsolations(t *testing.T) {
	net := smallNetwork(t)
	const days, pivot, pid = 30, 5, 7

	recRef := newHashingRecorder()
	simRef, err := New(snapCfg(net, days, 1, 4242, nil, recRef))
	if err != nil {
		t.Fatal(err)
	}
	simRef.ScheduleIsolate(8, pid, 40)
	if _, err := simRef.Run(); err != nil {
		t.Fatal(err)
	}

	recSplit := newHashingRecorder()
	simA, err := New(snapCfg(net, days, 1, 4242, nil, recSplit))
	if err != nil {
		t.Fatal(err)
	}
	simA.ScheduleIsolate(8, pid, 40)
	pre, err := simA.RunPrefix(pivot)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := simA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewFromSnapshot(snapCfg(net, days, 1, 4242, nil, recSplit), snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simB.RunSuffix(pre); err != nil {
		t.Fatal(err)
	}
	if simB.isolatedUntil[pid] != 40 {
		t.Errorf("pending isolation lost: person %d isolated until %d, want 40", pid, simB.isolatedUntil[pid])
	}
	if recRef.h != recSplit.h {
		t.Errorf("streams differ: scratch %#x, branched %#x", recRef.h, recSplit.h)
	}
	requireFinalStateEqual(t, simRef, simB)
}

// TestSnapshotCarriesScaleHW regresses the propensity-bound high-watermark:
// scaleHW remembers every infectivity scale ever set (the rejection bound
// must stay an upper bound), so a restore that recomputed it from current
// scales would change kernel rejection behavior.
func TestSnapshotCarriesScaleHW(t *testing.T) {
	net := smallNetwork(t)
	sim, err := New(snapCfg(net, 20, 1, 7, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInfectivity(3, 5.0)
	sim.SetInfectivity(3, 1.0) // watermark must remember the 5.0
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(snapCfg(net, 20, 1, 7, nil, nil), snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.scaleHW != sim.scaleHW {
		t.Errorf("scale high-watermark lost: got %g, want %g", restored.scaleHW, sim.scaleHW)
	}
	if restored.scaleHW < 5.0 {
		t.Errorf("watermark %g below historic max 5.0", restored.scaleHW)
	}
}

// TestSnapshotDayZeroBranch pins the earliest possible pivot: a snapshot
// taken right after construction still carries the day-0 seeding events in
// todayEvents, so event-driven interventions (VHI, contact tracing) see
// them on the branch's first tick exactly as a from-scratch run would.
func TestSnapshotDayZeroBranch(t *testing.T) {
	net := smallNetwork(t)
	const days = 30
	stack := func() []Intervention {
		return []Intervention{
			&VoluntaryHomeIsolation{Compliance: 0.6, IsolationDays: 10},
			&ContactTracing{Distance: 1, DetectProb: 0.4, TraceCompliance: 0.7, IsolationDays: 7},
		}
	}

	recRef := newHashingRecorder()
	simRef, err := New(snapCfg(net, days, 1, 2024, stack(), recRef))
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := simRef.Run()
	if err != nil {
		t.Fatal(err)
	}

	recSplit := newHashingRecorder()
	simA, err := New(snapCfg(net, days, 1, 2024, stack(), recSplit))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := simA.RunPrefix(0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := simA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewFromSnapshot(snapCfg(net, days, 1, 2024, stack(), recSplit), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(simB.todayEvents) == 0 {
		t.Error("day-0 seeding events lost in snapshot round-trip")
	}
	resSplit, err := simB.RunSuffix(pre)
	if err != nil {
		t.Fatal(err)
	}
	if recRef.h != recSplit.h || resultDigest(resRef) != resultDigest(resSplit) {
		t.Error("day-0 branch diverges from scratch run")
	}
}

// TestSnapshotRejectsOpaqueScheduled: a closure queued via Schedule cannot
// be serialized; Snapshot must refuse rather than drop it.
func TestSnapshotRejectsOpaqueScheduled(t *testing.T) {
	net := smallNetwork(t)
	sim, err := New(snapCfg(net, 20, 1, 1, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	sim.Schedule(5, func(s *Sim) {})
	if _, err := sim.Snapshot(); err == nil {
		t.Error("Snapshot succeeded with a pending opaque scheduled action")
	}
}

// TestRestoreRejectsCorruption: every malformed input must produce an
// error, never a silently wrong sim.
func TestRestoreRejectsCorruption(t *testing.T) {
	net := smallNetwork(t)
	mk := func() *Sim {
		sim, err := New(snapCfg(net, 20, 1, 55, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim := mk()
	if _, err := sim.RunPrefix(5); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"short":     snap[:8],
		"truncated": snap[:len(snap)-9],
		"bad magic": append([]byte("XXSNAP"), snap[6:]...),
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0xFF
	cases["bit flip"] = flipped
	trailing := append(append([]byte(nil), snap...), 0xAB)
	cases["trailing bytes"] = trailing

	for name, data := range cases {
		if err := mk().Restore(data); err == nil {
			t.Errorf("%s: Restore accepted corrupt snapshot", name)
		}
	}

	// A snapshot from a different network must be refused by node count.
	va, _ := synthpop.StateByCode("VA")
	ocfg := synthpop.DefaultConfig(777)
	ocfg.Scale = 40000
	other, err := synthpop.Generate(va, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	osim, err := New(snapCfg(other, 20, 1, 55, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := osim.Restore(snap); err == nil {
		t.Error("Restore accepted a snapshot from a different network")
	}
}

// TestSwapInterventionsTransfersState: the by-name handover must move a
// StayAtHome compliant set into the replacement stack — otherwise the
// branch re-samples compliance and rewrites pre-pivot history.
func TestSwapInterventionsTransfersState(t *testing.T) {
	net := smallNetwork(t)
	sh := &StayAtHome{StartDay: 3, EndDay: 40, Compliance: 0.5}
	sim, err := New(snapCfg(net, 20, 1, 11, []Intervention{sh}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPrefix(10); err != nil {
		t.Fatal(err)
	}
	if len(sh.compliant) == 0 {
		t.Fatal("no compliant persons sampled; test needs a live SH order")
	}
	replacement := &StayAtHome{StartDay: 3, EndDay: 60, Compliance: 0.5}
	sim.SwapInterventions([]Intervention{replacement})
	if !reflect.DeepEqual(sh.compliant, replacement.compliant) {
		t.Error("compliant set not transferred to the replacement stack")
	}
}

// FuzzSnapshotRoundTrip: arbitrary bytes fed to Restore — into a sim at an
// arbitrary shard count — must either load cleanly or error: never panic,
// never OOM. A successfully restored snapshot must re-serialize, and the
// re-serialization must be byte-identical regardless of the restoring
// sim's shard count (EPSNAP is canonical node order, never shard layout).
func FuzzSnapshotRoundTrip(f *testing.F) {
	net := smallNetwork(f)
	sim, err := New(snapCfg(net, 20, 1, 33, BaseCaseInterventions(5, 15, 0.3, 0.4), nil))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sim.RunPrefix(10); err != nil {
		f.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, uint8(1))
	f.Add(snap, uint8(4))
	f.Add(snap, uint8(8))
	f.Add(snap[:len(snap)-5], uint8(2))
	f.Add([]byte(snapMagic), uint8(3))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, shardByte uint8) {
		shards := 1 + int(shardByte%8)
		s, err := newSim(snapCfg(net, 20, shards, 33, BaseCaseInterventions(5, 15, 0.3, 0.4), nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(data); err != nil {
			return // rejected: fine
		}
		out, err := s.Snapshot()
		if err != nil {
			t.Fatalf("restored snapshot does not re-serialize: %v", err)
		}
		s1, err := newSim(snapCfg(net, 20, 1, 33, BaseCaseInterventions(5, 15, 0.3, 0.4), nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Restore(data); err != nil {
			t.Fatalf("snapshot restores at %d shards but not at 1: %v", shards, err)
		}
		out1, err := s1.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out1) {
			t.Fatalf("re-serialization differs between %d shards and 1 shard", shards)
		}
	})
}
