package epihiper

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/disease"
	"repro/internal/obs"
	"repro/internal/synthpop"
)

// This file gates the shard-owned engine (shard.go): snapshots must be
// shard-count-independent in both directions (taken at A, restored at B),
// the shard layout must respect the bitset-word alignment its no-atomics
// design depends on, replicate fan-outs must honor context cancellation,
// and BenchmarkShardScaling records the scaling curve for BENCH.json.

// TestSnapshotShardCrossing is the shard × snapshot cross product: a
// checkpoint taken at shard count A must restore and continue bit-
// identically at shard count B — EPSNAP serializes canonical node order,
// never shard layout, so every (A, B) pair reproduces the from-scratch
// reference run: same transition stream, same Result digest, same final
// state.
func TestSnapshotShardCrossing(t *testing.T) {
	net := smallNetwork(t)
	const days, pivot = 40, 17
	stack := func() []Intervention {
		return append(BaseCaseInterventions(8, 30, 0.3, 0.4),
			&TestAndIsolate{DailyDetectRate: 0.1, IsolationDays: 7},
			&MaskMandate{StartDay: 12, EndDay: days, WeightFactor: 0.8})
	}

	recRef := newHashingRecorder()
	simRef, err := New(snapCfg(net, days, 1, 2026, stack(), recRef))
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := simRef.Run()
	if err != nil {
		t.Fatal(err)
	}
	if recRef.count == 0 {
		t.Fatal("reference run produced no events; the fixture is vacuous")
	}
	refDigest := resultDigest(resRef)

	for _, pair := range [][2]int{{1, 4}, {4, 1}, {2, 8}, {8, 2}, {4, 8}, {8, 8}} {
		a, b := pair[0], pair[1]
		t.Run(fmt.Sprintf("snap=%d/restore=%d", a, b), func(t *testing.T) {
			rec := newHashingRecorder()
			simA, err := New(snapCfg(net, days, a, 2026, stack(), rec))
			if err != nil {
				t.Fatal(err)
			}
			pre, err := simA.RunPrefix(pivot)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := simA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			simB, err := NewFromSnapshot(snapCfg(net, days, b, 2026, stack(), rec), snap)
			if err != nil {
				t.Fatal(err)
			}
			// 64-alignment may merge shards on a ~400-person network
			// (requested counts can exceed the bitset-word supply); the
			// effective count only needs to differ across the pair for
			// the crossing to be exercised.
			if got := simB.ShardCount(); got < 1 || got > b {
				t.Fatalf("restored sim runs %d shards, want 1..%d", got, b)
			}
			res, err := simB.RunSuffix(pre)
			if err != nil {
				t.Fatal(err)
			}
			if rec.h != recRef.h || rec.count != recRef.count {
				t.Errorf("transition stream differs from scratch run: got %d events hash %#x, want %d events hash %#x",
					rec.count, rec.h, recRef.count, recRef.h)
			}
			if d := resultDigest(res); d != refDigest {
				t.Errorf("result digest differs from scratch run: got %#x, want %#x", d, refDigest)
			}
			requireFinalStateEqual(t, simRef, simB)
		})
	}
}

// TestShardLayout pins the structural invariants the no-atomics design
// rests on: shards cover the node range contiguously in ascending order,
// and every boundary except the last falls on a 64-node multiple so no
// effInfBits/riskBits word has two owners.
func TestShardLayout(t *testing.T) {
	net := smallNetwork(t)
	for _, shards := range []int{1, 2, 4, 8} {
		sim, err := New(snapCfg(net, 10, shards, 7, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		// Alignment may merge shards when the network is tiny relative
		// to the requested count (~400 persons is only ~6 bitset words),
		// but never exceed it.
		if got := sim.ShardCount(); got < 1 || got > shards {
			t.Fatalf("shards=%d: got %d shards", shards, got)
		}
		next := int32(0)
		for i := range sim.shards {
			sh := &sim.shards[i]
			if sh.first != next {
				t.Fatalf("shards=%d: shard %d starts at %d, want %d", shards, i, sh.first, next)
			}
			if sh.first%shardAlign != 0 {
				t.Fatalf("shards=%d: shard %d starts at unaligned node %d", shards, i, sh.first)
			}
			if sh.last < sh.first {
				t.Fatalf("shards=%d: shard %d empty range [%d,%d]", shards, i, sh.first, sh.last)
			}
			next = sh.last + 1
		}
		if int(next) != net.NumNodes() {
			t.Fatalf("shards=%d: coverage ends at %d, want %d", shards, next, net.NumNodes())
		}
		for pid := int32(0); int(pid) < net.NumNodes(); pid += 13 {
			if sh := sim.ownerOf(pid); !sh.owns(pid) {
				t.Fatalf("ownerOf(%d) returned shard %d owning [%d,%d]", pid, sh.id, sh.first, sh.last)
			}
		}
	}
}

// TestRunReplicatesCtxPreCancelled regresses the dispatch loop ignoring
// cancellation: a context cancelled before the call (a disconnected
// client) must yield ctx.Err() without executing the queued replicates —
// previously every replicate still ran to completion.
func TestRunReplicatesCtxPreCancelled(t *testing.T) {
	net := smallNetwork(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cfg := snapCfg(net, 30, 1, 99, nil, nil)
	start := time.Now()
	res, err := runReplicates(ctx, cfg, 64, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel path: got (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("parallel path returned results despite cancellation")
	}
	// 64 replicates of a 30-day run take far longer than the bail-out.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled dispatch still took %v", elapsed)
	}

	// The sequential path (shared intervention stack) must bail too.
	cfg.Interventions = BaseCaseInterventions(5, 20, 0.3, 0.4)
	res, err = runReplicates(ctx, cfg, 64, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential path: got (%v, %v), want context.Canceled", res, err)
	}
}

// TestRunReplicatesCtxUncancelled pins the happy path after the fix: a
// live context changes nothing about results.
func TestRunReplicatesCtxUncancelled(t *testing.T) {
	net := smallNetwork(t)
	cfg := snapCfg(net, 15, 2, 41, nil, nil)
	want, err := runReplicates(context.Background(), cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runReplicates(context.Background(), cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].TotalInfections != got[i].TotalInfections {
			t.Fatalf("replicate %d: %d infections with ctx, %d without", i, got[i].TotalInfections, want[i].TotalInfections)
		}
	}
}

// TestShardMetricsPublished checks the observability satellite: a run with
// a registry publishes the epi_shards gauge and per-phase
// epi_span_seconds{span="epihiper.shard.*"} histograms.
func TestShardMetricsPublished(t *testing.T) {
	net := smallNetwork(t)
	reg := obs.NewRegistry()
	cfg := snapCfg(net, 20, 4, 3, nil, nil)
	cfg.Metrics = reg
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "epi_shards 4") {
		t.Errorf("epi_shards gauge missing or wrong:\n%s", out)
	}
	for _, span := range []string{"transmit", "mutate"} {
		if !strings.Contains(out, `epi_span_seconds_count{span="epihiper.shard.`+span+`"}`) {
			t.Errorf("phase span %q missing from exposition:\n%s", span, out)
		}
	}
	if sim.PhaseSeconds("transmit") <= 0 {
		t.Error("transmit phase accumulated no wall-clock")
	}
}

// kernelCounterNames are the work series of publishMetrics, in kernelWork's
// field order; the last one is the only count that depends on sharding.
var kernelCounterNames = []string{
	"epi_kernel_at_risk_visits_total", "epi_kernel_row_scans_total", "epi_kernel_edge_visits_total",
	"epi_kernel_exposures_total", "epi_kernel_cross_shard_updates_total",
}

// TestKernelCountersPublished checks the kernel's work counters on the
// registry: present and ordered as the funnel they describe (visits ≥ scans ≥
// exposures ≥ infections), exactly repeatable per seed, independent of the
// shard count except for the cross-shard volume, additive over run segments,
// and invisible to the result — a run with a registry equals one without.
func TestKernelCountersPublished(t *testing.T) {
	net := goldenNetwork(t)
	run := func(shards, pivot int, reg *obs.Registry) (*Result, []int64) {
		cfg := Config{Model: disease.COVID19(), Network: net, Days: 50, Parallelism: shards,
			Seed: 77, Seeds: seedAll(net, 8), Metrics: reg}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pre *Result
		if pivot > 0 {
			if pre, err = sim.RunPrefix(pivot); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.RunSegment(pre, cfg.Days)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		if reg != nil {
			for _, name := range kernelCounterNames {
				counts = append(counts, reg.Counter(name).Value())
			}
		}
		return res, counts
	}
	plain, _ := run(1, 0, nil)
	res1, one := run(1, 0, obs.NewRegistry())
	if !reflect.DeepEqual(plain, res1) {
		t.Error("a run with a metrics registry differs from one without")
	}
	visits, scans, edges, exposures, cross := one[0], one[1], one[2], one[3], one[4]
	if !(visits >= scans && scans >= exposures && exposures >= res1.TotalInfections && res1.TotalInfections > 500) {
		t.Errorf("counters are not a funnel: visits %d, scans %d, exposures %d, infections %d",
			visits, scans, exposures, res1.TotalInfections)
	}
	if edges < scans || cross != 0 {
		t.Errorf("one shard: edge visits %d (scans %d), cross-shard updates %d", edges, scans, cross)
	}
	if _, again := run(1, 0, obs.NewRegistry()); !reflect.DeepEqual(one, again) {
		t.Errorf("counts do not repeat for one seed: %v then %v", one, again)
	}
	if _, split := run(1, 23, obs.NewRegistry()); !reflect.DeepEqual(one, split) {
		t.Errorf("two segments publish %v, one segment %v", split, one)
	}
	res4, four := run(4, 0, obs.NewRegistry())
	if !reflect.DeepEqual(plain, res4) {
		t.Error("the four-shard run differs from the one-shard run")
	}
	if !reflect.DeepEqual(one[:4], four[:4]) || four[4] == 0 {
		t.Errorf("four shards count %v, one shard %v (only the last may differ, and must be positive)", four, one)
	}
	t.Logf("visits %d, scans %d, edge visits %d, exposures %d; scans per exposure %.2f; cross-shard updates at 4 shards %d",
		visits, scans, edges, exposures, float64(scans)/float64(exposures), four[4])
}

// flipRecorder sums the degree of every node whose transition turns its
// infectiousness on or off: the neighbor updates the mutate phase performs.
type flipRecorder struct {
	model   *disease.Model
	net     *synthpop.Network
	updates int64
}

func (r *flipRecorder) Record(_ int, pid int32, from, to disease.State, _ int32) {
	if r.model.IsInfectious(from) != r.model.IsInfectious(to) {
		r.updates += int64(r.net.Degree(int(pid)))
	}
}

// TestShardCrossUpdatesStayLocal holds what the county-ordered population
// layout buys the engine: at two shards, at most 15% of the mutate phase's
// neighbor updates leave the shard that made them. With people numbered in
// draw order 38% did.
func TestShardCrossUpdatesStayLocal(t *testing.T) {
	va, err := synthpop.StateByCode("VA")
	if err != nil {
		t.Fatal(err)
	}
	net, err := synthpop.Generate(va, synthpop.DefaultConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() < 8000 {
		t.Fatalf("network of %d nodes is too small for the claim", net.NumNodes())
	}
	model := disease.COVID19()
	rec := &flipRecorder{model: model, net: net}
	reg := obs.NewRegistry()
	sim, err := New(Config{Model: model, Network: net, Days: 60, Parallelism: 2,
		Seed: 3, Seeds: seedAll(net, 10), Recorder: rec, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.shards) != 2 {
		t.Fatalf("%d shards, want 2", len(sim.shards))
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	cross := reg.Counter("epi_kernel_cross_shard_updates_total").Value()
	t.Logf("%d nodes, %d infections: %d of %d neighbor updates crossed the shard line (%.3f)",
		net.NumNodes(), res.TotalInfections, cross, rec.updates, float64(cross)/float64(rec.updates))
	if res.TotalInfections < 1000 {
		t.Fatalf("only %d infections: the epidemic did not exercise the exchange", res.TotalInfections)
	}
	if cross == 0 || float64(cross) > 0.15*float64(rec.updates) {
		t.Errorf("%d of %d neighbor updates crossed the shard line, want some and at most 15%%", cross, rec.updates)
	}
}
