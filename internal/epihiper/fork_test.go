package epihiper

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/disease"
)

// TestForkConcurrentFromOneFrozenSim is the what-if workflow's sharing
// pattern under the race detector: a walker runs the as-is stack to the
// pivot, freezes a fork there and runs on, while four goroutines fork the
// frozen sim under a scenario stack — three of them onto another shard
// count — and run to the horizon. Every branch must equal the in-place swap
// of a from-scratch run — stream, Result and final state — and the walker
// must equal an unbranched run: no fork may write into another's state or
// into its source's.
func TestForkConcurrentFromOneFrozenSim(t *testing.T) {
	net := testNetwork(t, 515)
	const days, pivot, par, seed = 45, 18, 4, 515
	cfg := func(ivs []Intervention, rec Recorder) Config {
		c := snapCfg(net, days, par, seed, ivs, rec)
		c.Model.Transmissibility = 0.3
		return c
	}
	baseStack := func() []Intervention {
		return append(BaseCaseInterventions(8, days, 0.4, 0.5),
			&TestAndIsolate{DailyDetectRate: 0.15, IsolationDays: 7})
	}
	branchStack := func() []Intervention {
		return append(BaseCaseInterventions(8, 28, 0.6, 0.5),
			&ContactTracing{Distance: 1, DetectProb: 0.4, TraceCompliance: 0.7, IsolationDays: 7})
	}
	// suffixOnly forwards the ticks a branch runs, so a reference stream
	// is comparable with a branch's recorder.
	suffixOnly := func(rec Recorder) Recorder {
		return RecorderFunc(func(tick int, pid int32, from, to disease.State, infector int32) {
			if tick >= pivot {
				rec.Record(tick, pid, from, to, infector)
			}
		})
	}

	recSwap := newHashingRecorder()
	swap, err := New(cfg(baseStack(), suffixOnly(recSwap)))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := swap.RunPrefix(pivot)
	if err != nil {
		t.Fatal(err)
	}
	swap.SwapInterventions(branchStack())
	resSwap, err := swap.RunSuffix(pre)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := New(cfg(baseStack(), nil))
	if err != nil {
		t.Fatal(err)
	}
	resStraight, err := straight.Run()
	if err != nil {
		t.Fatal(err)
	}

	walker, err := New(cfg(baseStack(), nil))
	if err != nil {
		t.Fatal(err)
	}
	preW, err := walker.RunPrefix(pivot)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := walker.Fork(Config{Interventions: baseStack()})
	if err != nil {
		t.Fatal(err)
	}

	const branches = 4
	branchShards := [branches]int{par, 1, 2, 8}
	var (
		wg       sync.WaitGroup
		sims     [branches]*Sim
		results  [branches]*Result
		recs     [branches]*hashingRecorder
		errs     [branches + 1]error
		resWalk  *Result
		walkDone = make(chan struct{})
	)
	go func() {
		defer close(walkDone)
		resWalk, errs[branches] = walker.RunSuffix(preW)
	}()
	for i := range branches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = newHashingRecorder()
			sims[i], errs[i] = frozen.Fork(Config{Interventions: branchStack(), Recorder: recs[i], Parallelism: branchShards[i]})
			if errs[i] == nil {
				results[i], errs[i] = sims[i].RunSuffix(preW)
			}
		}()
	}
	wg.Wait()
	<-walkDone
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if recSwap.count < 100 {
		t.Fatalf("only %d transitions after the pivot; the case is vacuous", recSwap.count)
	}
	for i := range branches {
		if recs[i].h != recSwap.h || recs[i].count != recSwap.count {
			t.Errorf("branch %d: stream %d events hash %#x, swap %d events hash %#x", i, recs[i].count, recs[i].h, recSwap.count, recSwap.h)
		}
		if resultDigest(results[i]) != resultDigest(resSwap) {
			t.Errorf("branch %d: Result differs from the swap's", i)
		}
		requireFinalStateEqual(t, swap, sims[i])
	}
	if resultDigest(resWalk) != resultDigest(resStraight) {
		t.Error("the walker diverged from an unbranched run after freezing a fork")
	}
	requireFinalStateEqual(t, straight, walker)
}

// TestForkRefusesAnotherRun: a fork keeps its source's model, network,
// horizon and seed. Naming the same ones (an equal model value included) is
// accepted; naming another is refused, never run under tables computed for
// the original. Another shard count is accepted: the fork repartitions, and
// runs on to the same result as its source.
func TestForkRefusesAnotherRun(t *testing.T) {
	net := smallNetwork(t)
	sim, err := New(snapCfg(net, 20, 2, 9, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := sim.RunPrefix(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Fork(Config{}); err != nil {
		t.Errorf("zero config refused: %v", err)
	}
	if _, err := sim.Fork(snapCfg(net, 20, 2, 9, nil, nil)); err != nil {
		t.Errorf("the source's own configuration refused: %v", err)
	}
	other := smallNetwork(t)
	hotter := disease.COVID19()
	hotter.Transmissibility *= 1.5
	for name, cfg := range map[string]Config{
		"model":   {Model: hotter},
		"network": {Network: other},
		"horizon": {Days: 25},
		"seed":    {Seed: 10},
	} {
		if _, err := sim.Fork(cfg); err == nil {
			t.Errorf("fork with another %s accepted", name)
		}
	}
	resharded, err := sim.Fork(Config{Parallelism: 4})
	if err != nil {
		t.Fatalf("fork with another shard count refused: %v", err)
	}
	got, err := resharded.RunSuffix(pre)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunSuffix(pre)
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(got) != resultDigest(want) {
		t.Error("a fork at 4 shards runs to another Result than its 2-shard source")
	}
	requireFinalStateEqual(t, sim, resharded)
}

// TestForkAcrossShardCounts: a fork onto another shard count — fewer, more,
// or up from one — continues bit-identically to an unbranched run at the
// source's count: transition stream, Result and final state. The what-if
// fan-out relies on it when a checkpoint cached under one fan-out is
// branched under another.
func TestForkAcrossShardCounts(t *testing.T) {
	net := testNetwork(t, 4343)
	const days, pivot, seed = 40, 17, 4343
	stack := func() []Intervention {
		return append(BaseCaseInterventions(6, 30, 0.4, 0.5),
			&PulsingShutdown{StartDay: 8, EndDay: 36, PeriodDays: 5, Compliance: 0.4},
			&TestAndIsolate{DailyDetectRate: 0.15, IsolationDays: 7},
			&WeekendSchedule{SundayReligion: true})
	}
	for _, c := range []struct{ from, to int }{{1, 2}, {2, 1}, {2, 4}} {
		t.Run(fmt.Sprintf("%d→%d", c.from, c.to), func(t *testing.T) {
			recRef := newHashingRecorder()
			ref, err := New(snapCfg(net, days, c.from, seed, stack(), recRef))
			if err != nil {
				t.Fatal(err)
			}
			resRef, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			if recRef.count < 100 {
				t.Fatalf("only %d transitions; the case is vacuous", recRef.count)
			}

			recSplit := newHashingRecorder()
			src, err := New(snapCfg(net, days, c.from, seed, stack(), recSplit))
			if err != nil {
				t.Fatal(err)
			}
			pre, err := src.RunPrefix(pivot)
			if err != nil {
				t.Fatal(err)
			}
			fork, err := src.Fork(Config{Parallelism: c.to, Interventions: stack(), Recorder: recSplit})
			if err != nil {
				t.Fatal(err)
			}
			if fork.ShardCount() != c.to || src.ShardCount() != c.from {
				t.Fatalf("fork runs %d shards and its source %d, want %d and %d", fork.ShardCount(), src.ShardCount(), c.to, c.from)
			}
			res, err := fork.RunSuffix(pre)
			if err != nil {
				t.Fatal(err)
			}
			if recSplit.h != recRef.h || recSplit.count != recRef.count {
				t.Errorf("stream %d events hash %#x, unbranched %d events hash %#x", recSplit.count, recSplit.h, recRef.count, recRef.h)
			}
			if resultDigest(res) != resultDigest(resRef) {
				t.Error("Result differs from the unbranched run's")
			}
			requireFinalStateEqual(t, ref, fork)
		})
	}
}

// stateBytes prices an intervention's state without encoding it; it must
// read exactly len(EncodeState()) for each stateful intervention, before,
// during and after its window, so checkpoint costs do not move.
func TestStateBytesMatchesEncoding(t *testing.T) {
	net := testNetwork(t, 4242)
	const days = 40
	ivs := []Intervention{
		&StayAtHome{StartDay: 5, EndDay: 30, Compliance: 0.6},
		&PulsingShutdown{StartDay: 8, EndDay: 36, PeriodDays: 5, Compliance: 0.4},
		&WeekendSchedule{SundayReligion: true},
	}
	sim, err := New(snapCfg(net, days, 1, 4242, ivs, nil))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	filled := map[string]bool{}
	for _, stop := range []int{0, 3, 6, 9, 12, 20, 33, 38, days} {
		if res, err = sim.RunSegment(res, stop); err != nil {
			t.Fatal(err)
		}
		for _, iv := range ivs {
			st := iv.(InterventionState)
			enc := len(st.EncodeState())
			if got := stateBytes(st); got != int64(enc) {
				t.Errorf("day %d: %s state priced at %d bytes, encodes to %d", stop, iv.Name(), got, enc)
			}
			filled[iv.Name()] = filled[iv.Name()] || enc > 5
		}
	}
	for _, iv := range ivs[:2] {
		if !filled[iv.Name()] {
			t.Errorf("%s never held a compliant set; the case is vacuous", iv.Name())
		}
	}
}
