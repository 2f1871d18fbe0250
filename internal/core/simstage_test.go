package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunSimPrefixEqualsWhatIfCheckpoint: for one (cell, replicate), days
// [0, pivot) of RunSim's full-horizon result are exactly what the what-if
// prefix walk checkpoints at the pivot. That is the statement that a
// from-scratch run and the what-if engine seed, configure and intervene
// identically; a second spelling of the job → simulator rule would break it.
func TestRunSimPrefixEqualsWhatIfCheckpoint(t *testing.T) {
	p := testPipeline(91)
	cfg := PredictionConfig{
		State:   "VA",
		Configs: []Params{{TAU: 0.25, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}, {TAU: 0.3, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.6}},
		Days:    45, SHStart: 10, SHEnd: 35,
	}
	const pivot = 28 // past SHStart+15, so every baseline intervention has fired
	job := SimJob{State: cfg.State, Cell: 1, Replicate: 3, Params: cfg.Configs[1], Days: cfg.Days}
	full, err := p.RunSim(job, cfg.SHStart, cfg.SHEnd, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := p.Network(cfg.State)
	db, _ := p.DB(cfg.State)
	cps, err := p.ensureCheckpoints(context.Background(), cfg, net, db, job, []int{pivot}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp := cps[pivot].res
	if cp.Days != full.Result.Days {
		t.Fatalf("checkpoint horizon %d, RunSim horizon %d", cp.Days, full.Result.Days)
	}
	if !slices.Equal(cp.Daily[:pivot], full.Result.Daily[:pivot]) || !slices.Equal(cp.Current[:pivot], full.Result.Current[:pivot]) {
		t.Fatal("the what-if prefix walk and RunSim disagree on days [0, pivot) of one job")
	}
	var entered int64
	for _, row := range cp.Daily[:pivot] {
		for _, c := range row {
			entered += int64(c)
		}
	}
	if entered < 100 {
		t.Fatalf("only %d transitions before the pivot; the prefix is too quiet to test anything", entered)
	}
}

// TestFanOutCancelMidDispatch: once ctx is cancelled the fan-out starts no
// further job — neither from the dispatcher nor from a worker already holding
// an index — returns ctx.Err() and leaves no goroutine behind.
func TestFanOutCancelMidDispatch(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	release := make(chan struct{})
	// Every worker blocks inside its first job; the last one in cancels, so
	// no worker is between its ctx check and its job when the cancel lands.
	err := testPipeline(1).fanOut(ctx, make([]SimJob, 64), func(context.Context, int, int) error {
		if started.Add(1) == simWorkers {
			cancel()
			close(release)
		}
		<-release
		return errors.New("masked by the cancellation")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != simWorkers {
		t.Fatalf("%d jobs started, want the %d in flight at the cancel", n, simWorkers)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after fanOut returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobErrorCarriesIndex: a failing job surfaces with its index in the
// fan-out, whichever workflow dispatched it.
func TestJobErrorCarriesIndex(t *testing.T) {
	p := testPipeline(92)
	cfg := PredictionConfig{
		State:      "VA",
		Configs:    []Params{{TAU: 0.25, SYMP: 0.65}, {TAU: -1, SYMP: 0.65}},
		Replicates: 1, Days: 12,
	}
	_, predErr := p.RunPredictionWorkflowCtx(context.Background(), cfg)
	_, whatIfErr := p.RunWhatIfScenariosCtx(context.Background(), cfg, []WhatIf{{Name: "noop"}})
	for name, err := range map[string]error{"prediction": predErr, "what-if": whatIfErr} {
		if err == nil || !strings.Contains(err.Error(), "core: job 1: ") || !strings.Contains(err.Error(), "negative TAU") {
			t.Errorf("%s: err = %v, want job 1's negative-TAU failure", name, err)
		}
	}
}

// TestFanOutShardsFitTheCPUs: a fan-out of n jobs on GOMAXPROCS g runs every
// simulation at max(1, min(P, g/k)) shards, where k = min(simWorkers, n) is
// the number of jobs that run at once and P the pipeline's Parallelism. The
// prediction workflow's simulations report that count on epi_shards, and a
// what-if request whose prefix walk and branches run at different counts —
// a fork re-partitioning a checkpoint, also one cached by an earlier request
// under another fan-out — forecasts exactly what from-scratch runs at P
// shards forecast.
func TestFanOutShardsFitTheCPUs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, g := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(g)
		for _, par := range []int{1, 2, 4} {
			p := NewPipeline(1, WithParallelism(par))
			for _, n := range []int{1, 2, 3, 4, 5, 16} {
				want := max(1, min(par, g/min(simWorkers, n)))
				var got atomic.Int64
				got.Store(-1)
				err := p.fanOut(context.Background(), make([]SimJob, n), func(_ context.Context, _, shards int) error {
					if old := got.Swap(int64(shards)); old != -1 && old != int64(shards) {
						return fmt.Errorf("shard counts %d and %d in one fan-out", old, shards)
					}
					return nil
				})
				if err != nil || got.Load() != int64(want) {
					t.Errorf("GOMAXPROCS %d, Parallelism %d, %d jobs: %d shards (err %v), want %d", g, par, n, got.Load(), err, want)
				}
			}
		}
	}

	runtime.GOMAXPROCS(4)
	p := NewPipeline(61, WithScale(40000), WithParallelism(4))
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	params := Params{TAU: 0.25, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}
	for _, c := range []struct{ replicates, want int }{{1, 4}, {2, 2}, {3, 1}} {
		cfg := PredictionConfig{State: "VA", Configs: []Params{params}, Replicates: c.replicates, Days: 20}
		if _, err := p.RunPredictionWorkflowCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge("epi_shards").Value(); got != float64(c.want) {
			t.Errorf("prediction of %d jobs on 4 CPUs: simulations ran %g shards, want %d", c.replicates, got, c.want)
		}
	}

	// One prefix walks at 4 shards and three branches fork it at 1; then
	// two prefixes resume from those checkpoints at 2 shards each.
	scenarios := []WhatIf{
		{Name: "lift", SHEndShift: -10},
		{Name: "comply", ComplianceScale: 1.4},
		{Name: "trace", AddTesting: 0.2, AddTracing: 1, TraceDetectProb: 0.4},
	}
	for _, reps := range []int{1, 2} {
		cfg := PredictionConfig{State: "VA", Configs: []Params{params}, Replicates: reps, Days: 40, SHStart: 12, SHEnd: 32}
		shared, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge("epi_shards").Value(); got != 1 {
			t.Errorf("%d-replicate what-if: branches ran %g shards, want 1", reps, got)
		}
		unshared := runWhatIfUnshared(t, p, cfg, scenarios)
		for i := range shared {
			if !reflect.DeepEqual(shared[i], unshared[i]) {
				t.Errorf("%d-replicate what-if, scenario %q: re-sharded forks and from-scratch runs at 4 shards differ", reps, shared[i].Scenario.Name)
			}
		}
	}
	if p.snapshotStats().Hits == 0 {
		t.Error("the second what-if found no checkpoint of the first; no walk resumed across fan-outs")
	}
}
