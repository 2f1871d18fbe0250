package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// smallPredictionConfig keeps cancellation tests fast: one configuration,
// few replicates, a short horizon on the smallest state.
func smallPredictionConfig(replicates, days int) PredictionConfig {
	return PredictionConfig{
		State:      "RI",
		Configs:    []Params{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
		Replicates: replicates,
		Days:       days,
		SHStart:    10, SHEnd: days,
	}
}

func TestPredictionWorkflowPreCanceledContext(t *testing.T) {
	p := testPipeline(31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunPredictionWorkflowCtx(ctx, smallPredictionConfig(2, 20)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled prediction returned %v want context.Canceled", err)
	}
}

func TestPredictionWorkflowMidRunCancel(t *testing.T) {
	p := testPipeline(32)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Enough replicates that cancellation lands mid-run; sized for
		// the optimized transmission kernel, which finishes a dozen
		// replicates well inside the cancellation sleep.
		_, err := p.RunPredictionWorkflowCtx(ctx, smallPredictionConfig(96, 120))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled prediction returned %v want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("prediction did not unwind after cancel")
	}
}

func TestWhatIfWorkflowPreCanceledContext(t *testing.T) {
	p := testPipeline(33)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.RunWhatIfScenariosCtx(ctx, smallPredictionConfig(1, 20),
		[]WhatIf{{Name: "noop"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled what-if returned %v want context.Canceled", err)
	}
}

func TestRunNightsCtxCancelStopsBetweenNights(t *testing.T) {
	p := testPipeline(34)
	// Shrink the window and inflate the workload so the campaign carries
	// over across many nights — long enough that the cancel lands between
	// night boundaries.
	p.Window = cluster.Window{StartHour: 0, EndHour: 2}
	spec := TableI()[2]
	spec.Cells *= 20

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	reps, err := p.RunNightsCtx(ctx, NightConfig{Spec: spec, Heuristic: "FFDT-DC", Seed: 5}, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled nights returned %v want context.Canceled (after %d nights)", err, len(reps))
	}
	if len(reps) >= 1_000_000 {
		t.Fatalf("ran all %d nights despite cancel", len(reps))
	}

	// A pre-canceled context runs zero nights.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	reps, err = p.RunNightsCtx(ctx2, NightConfig{Spec: spec, Heuristic: "FFDT-DC", Seed: 5}, 3)
	if !errors.Is(err, context.Canceled) || len(reps) != 0 {
		t.Fatalf("pre-canceled nights: %d reports, err %v", len(reps), err)
	}
}

func TestNightCtxPreCanceled(t *testing.T) {
	p := testPipeline(35)
	spec := TableI()[1]
	spec.Cells, spec.Replicates = 4, 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunNightCtx(ctx, NightConfig{Spec: spec, Heuristic: "FFDT-DC", Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled night returned %v want context.Canceled", err)
	}
}

// TestConcurrentPredictionsShareOnePipeline is the shared-substrate safety
// test for the scenario service: two goroutines run prediction workflows on
// one Pipeline (shared synthetic population, network cache, transfer
// ledger) concurrently. Under -race this exercises the memoized substrate
// paths; the assertions pin determinism — each concurrent run must equal
// its solo baseline.
func TestConcurrentPredictionsShareOnePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent full workflows in short mode")
	}
	cfgA := smallPredictionConfig(2, 25)
	cfgB := smallPredictionConfig(3, 25)

	solo := testPipeline(40)
	baseA, err := solo.RunPredictionWorkflowCtx(context.Background(), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := solo.RunPredictionWorkflowCtx(context.Background(), cfgB)
	if err != nil {
		t.Fatal(err)
	}

	shared := testPipeline(40)
	var wg sync.WaitGroup
	outs := make([]*PredictionOutcome, 2)
	errs := make([]error, 2)
	for i, cfg := range []PredictionConfig{cfgA, cfgB} {
		wg.Add(1)
		go func(i int, cfg PredictionConfig) {
			defer wg.Done()
			outs[i], errs[i] = shared.RunPredictionWorkflowCtx(context.Background(), cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for d := range baseA.Confirmed.Median {
		if outs[0].Confirmed.Median[d] != baseA.Confirmed.Median[d] {
			t.Fatalf("run A day %d: concurrent %v != solo %v",
				d, outs[0].Confirmed.Median[d], baseA.Confirmed.Median[d])
		}
	}
	for d := range baseB.Confirmed.Median {
		if outs[1].Confirmed.Median[d] != baseB.Confirmed.Median[d] {
			t.Fatalf("run B day %d: concurrent %v != solo %v",
				d, outs[1].Confirmed.Median[d], baseB.Confirmed.Median[d])
		}
	}
}
