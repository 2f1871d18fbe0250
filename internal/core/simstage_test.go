package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
	full, err := p.RunSim(job, cfg.SHStart, cfg.SHEnd)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := p.Network(cfg.State)
	db, _ := p.DB(cfg.State)
	cps, err := p.ensureCheckpoints(context.Background(), cfg, net, db, job, []int{pivot})
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
	err := fanOut(ctx, make([]SimJob, 64), func(context.Context, int) error {
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
