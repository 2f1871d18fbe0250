package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/castore"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/output"
)

func TestStandardWhatIfs(t *testing.T) {
	ws := StandardWhatIfs()
	if len(ws) != 3 {
		t.Fatalf("%d scenarios want 3 (the paper's examples)", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || names[w.Name] {
			t.Fatalf("bad or duplicate scenario name %q", w.Name)
		}
		names[w.Name] = true
	}
}

func TestWhatIfApply(t *testing.T) {
	pr := Params{TAU: 0.2, SYMP: 0.6, SHCompliance: 0.6, VHICompliance: 0.8}
	// Compliance scaling caps at 1.
	w := WhatIf{ComplianceScale: 1.5}
	scaled, ivs := w.apply(pr, 10, 60)
	if math.Abs(scaled.SHCompliance-0.9) > 1e-12 {
		t.Fatalf("SH compliance %v want 0.9", scaled.SHCompliance)
	}
	if scaled.VHICompliance != 1 {
		t.Fatalf("VHI compliance %v want cap at 1", scaled.VHICompliance)
	}
	if len(ivs) != 3 {
		t.Fatalf("%d interventions want 3", len(ivs))
	}
	// Early lift cannot precede the start.
	w2 := WhatIf{SHEndShift: -100}
	_, ivs2 := w2.apply(pr, 10, 60)
	_ = ivs2
	// Testing and tracing layers appear.
	w3 := WhatIf{AddTesting: 0.2, AddTracing: 2, TraceDetectProb: 0.3}
	_, ivs3 := w3.apply(pr, 10, 60)
	if len(ivs3) != 5 {
		t.Fatalf("%d interventions want 5 (base 3 + TA + CT)", len(ivs3))
	}
	names := map[string]bool{}
	for _, iv := range ivs3 {
		names[iv.Name()] = true
	}
	if !names["TA"] || !names["D2CT"] {
		t.Fatalf("layers missing: %v", names)
	}
}

func TestRunWhatIfScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("what-if scenarios in short mode")
	}
	p := testPipeline(30)
	configs := []Params{
		{TAU: 0.24, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5},
		{TAU: 0.27, SYMP: 0.6, SHCompliance: 0.45, VHICompliance: 0.55},
	}
	cfg := PredictionConfig{State: "VA", Configs: configs, Replicates: 3, Days: 70}
	scenarios := []WhatIf{
		{Name: "as-is-proxy"}, // no modification
		{Name: "sh-lifted-early", SHEndShift: -30},
		{Name: "better-compliance", ComplianceScale: 1.6},
	}
	outs, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outcomes want 3", len(outs))
	}
	byName := map[string]*ScenarioOutcome{}
	for _, o := range outs {
		byName[o.Scenario.Name] = o
		// Bands ordered and monotone.
		for d := 1; d < cfg.Days; d++ {
			if o.Confirmed.Median[d] < o.Confirmed.Median[d-1] {
				t.Fatalf("%s: median decreased", o.Scenario.Name)
			}
			if o.Confirmed.Lo[d] > o.Confirmed.Hi[d] {
				t.Fatalf("%s: band inverted", o.Scenario.Name)
			}
		}
	}
	last := cfg.Days - 1
	asIs := byName["as-is-proxy"].Confirmed.Median[last]
	early := byName["sh-lifted-early"].Confirmed.Median[last]
	better := byName["better-compliance"].Confirmed.Median[last]
	// Lifting early should not reduce cases; better compliance should not
	// increase them (allow small-sample slack of 10%).
	if early < asIs*0.9 {
		t.Fatalf("lifting SH early reduced cases: %v vs %v", early, asIs)
	}
	if better > asIs*1.1 {
		t.Fatalf("better compliance increased cases: %v vs %v", better, asIs)
	}
}

func TestRunWhatIfValidation(t *testing.T) {
	p := testPipeline(31)
	if _, err := p.RunWhatIfScenariosCtx(context.Background(), PredictionConfig{State: "VA"}, StandardWhatIfs()); err == nil {
		t.Error("no configs accepted")
	}
	if _, err := p.RunWhatIfScenariosCtx(context.Background(), PredictionConfig{
		State: "VA", Configs: []Params{{TAU: 0.2, SYMP: 0.6}},
	}, nil); err == nil {
		t.Error("no scenarios accepted")
	}
}

// runWhatIfUnshared is the from-scratch oracle of the what-if workflow: every
// (scenario, cell, replicate) re-simulates the as-is history to its pivot,
// swaps the scenario stack in and runs on — the computation the checkpoint
// path shortcuts. It builds each simulation with the stage's simConfig, so
// seeds and seeding cannot drift from production, and shares nothing else
// with RunWhatIfScenariosCtx: no checkpoint, no fork, no fan-out. Its bands
// come from a CountyAggregator it attaches to each run's configuration,
// summed over counties — an independent cross-check of the production curves
// over Result.Daily.
func runWhatIfUnshared(t *testing.T, p *Pipeline, cfg PredictionConfig, scenarios []WhatIf) []*ScenarioOutcome {
	t.Helper()
	cfg.fillDefaults(5)
	net, err := p.Network(cfg.State)
	if err != nil {
		t.Fatal(err)
	}
	db, err := p.DB(cfg.State)
	if err != nil {
		t.Fatal(err)
	}
	var outs []*ScenarioOutcome
	for _, sc := range scenarios {
		so := &ScenarioOutcome{Scenario: sc}
		aggs := map[*SimOutput]*output.CountyAggregator{}
		for ci, pr := range cfg.Configs {
			for rep := 0; rep < cfg.Replicates; rep++ {
				scaled, ivs := sc.apply(pr, cfg.SHStart, cfg.SHEnd)
				job := SimJob{State: cfg.State, Cell: ci, Replicate: rep, Params: scaled, Days: cfg.Days}
				agg := output.NewCountyAggregator(net, cfg.Days)
				simCfg, err := p.simConfig(job, net, db, interventionsFor(pr, cfg.SHStart, cfg.SHEnd), p.Parallelism)
				if err != nil {
					t.Fatal(err)
				}
				simCfg.Recorder = agg
				sim, err := epihiper.New(simCfg)
				if err != nil {
					t.Fatal(err)
				}
				prefix, err := sim.RunPrefix(sc.pivot(cfg))
				if err != nil {
					t.Fatal(err)
				}
				sim.SwapInterventions(ivs)
				res, err := sim.RunSuffix(prefix)
				if err != nil {
					t.Fatal(err)
				}
				out := &SimOutput{Job: job, Result: res}
				aggs[out] = agg
				so.Sims = append(so.Sims, out)
			}
		}
		so.Confirmed = ensembleBand(so.Sims, cfg.Days, func(s *SimOutput) []float64 {
			return countyCumulative(aggs[s], cfg.Days, disease.Attended, disease.AttendedH, disease.AttendedD)
		})
		so.Deaths = ensembleBand(so.Sims, cfg.Days, func(s *SimOutput) []float64 {
			return countyCumulative(aggs[s], cfg.Days, disease.Dead)
		})
		outs = append(outs, so)
	}
	return outs
}

// countyCumulative sums the aggregator's daily series of the given states
// over every county and accumulates them over the horizon.
func countyCumulative(agg *output.CountyAggregator, days int, states ...disease.State) []float64 {
	daily := make([]int64, days)
	for _, c := range agg.Counties() {
		for _, st := range states {
			for d, v := range agg.Daily(c, st) {
				daily[d] += int64(v)
			}
		}
	}
	out := make([]float64, days)
	var acc int64
	for d, v := range daily {
		acc += v
		out[d] = float64(acc)
	}
	return out
}

// TestWhatIfSharedMatchesUnshared is the workflow-level equivalence gate:
// forking every scenario from the shared-prefix checkpoint must produce
// bit-identical forecasts to re-simulating each scenario's history from
// scratch. The scenarios span three distinct pivot days so the test also
// exercises the multi-checkpoint prefix walk, and a first call caches the
// earliest pivot so that walk resumes by forking a cached checkpoint.
func TestWhatIfSharedMatchesUnshared(t *testing.T) {
	p := testPipeline(77)
	cfg := PredictionConfig{
		State: "VA",
		Configs: []Params{
			{TAU: 0.24, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5},
			{TAU: 0.27, SYMP: 0.6, SHCompliance: 0.45, VHICompliance: 0.55},
		},
		Replicates: 2, Days: 40,
	}
	scenarios := []WhatIf{
		{Name: "default-pivot", SHEndShift: -10}, // pivots at SHStart (15)
		{Name: "early-pivot", PivotDay: 10, ComplianceScale: 1.4},
		{Name: "late-pivot", PivotDay: 25, AddTesting: 0.2},
	}
	if _, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios[1:2]); err != nil {
		t.Fatal(err)
	}
	hits := p.snapshotStats().Hits
	shared, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if p.snapshotStats().Hits == hits {
		t.Error("the full run found none of the cached day-10 checkpoints; the walk never resumed")
	}
	unshared := runWhatIfUnshared(t, p, cfg, scenarios)
	if len(shared) != len(unshared) {
		t.Fatalf("outcome counts differ: %d vs %d", len(shared), len(unshared))
	}
	for i := range shared {
		if !reflect.DeepEqual(shared[i], unshared[i]) {
			t.Errorf("scenario %q: shared and unshared forecasts differ", shared[i].Scenario.Name)
		}
	}
	if st := p.snapshotStats(); st.Misses == 0 {
		t.Error("shared run recorded no snapshot misses; the prefix walk never ran")
	}
}

// TestWhatIfSnapshotCacheReuse: a second identical what-if call must serve
// every prefix from the checkpoint store (hits, no new misses) and return
// identical forecasts.
func TestWhatIfSnapshotCacheReuse(t *testing.T) {
	p := testPipeline(78)
	cfg := PredictionConfig{
		State:      "VA",
		Configs:    []Params{{TAU: 0.25, SYMP: 0.6, SHCompliance: 0.5, VHICompliance: 0.5}},
		Replicates: 2, Days: 35,
	}
	scenarios := []WhatIf{
		{Name: "a", SHEndShift: -5},
		{Name: "b", ComplianceScale: 1.3},
	}
	first, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	st1 := p.snapshotStats()
	if st1.Misses == 0 || st1.Entries == 0 {
		t.Fatalf("first call should miss and populate the store: %+v", st1)
	}
	second, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	st2 := p.snapshotStats()
	if st2.Misses != st1.Misses {
		t.Errorf("second call re-simulated prefixes: misses %d -> %d", st1.Misses, st2.Misses)
	}
	if st2.Hits <= st1.Hits {
		t.Errorf("second call recorded no cache hits: %d -> %d", st1.Hits, st2.Hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached and fresh forecasts differ")
	}
}

// TestWhatIfCacheDisabled: WithSnapshotCacheBytes(0) turns cross-call
// caching off but the prefix is still shared within a call — and the
// forecasts still match a caching pipeline's.
func TestWhatIfCacheDisabled(t *testing.T) {
	cfg := PredictionConfig{
		State:      "VA",
		Configs:    []Params{{TAU: 0.25, SYMP: 0.6, SHCompliance: 0.5, VHICompliance: 0.5}},
		Replicates: 2, Days: 35,
	}
	scenarios := []WhatIf{{Name: "a", SHEndShift: -5}, {Name: "b", AddTesting: 0.15}}

	nocache := NewPipeline(79, WithScale(40000), WithParallelism(2), WithSnapshotCacheBytes(0))
	got, err := nocache.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if st := nocache.snapshotStats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("disabled store has activity: %+v", st)
	}
	cached := NewPipeline(79, WithScale(40000), WithParallelism(2))
	want, err := cached.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("cache-disabled forecasts differ from cached pipeline's")
	}
}

// TestWhatIfCanceledContext: a pre-canceled context must abort before any
// simulation work.
func TestWhatIfCanceledContext(t *testing.T) {
	p := testPipeline(80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.RunWhatIfScenariosCtx(ctx, PredictionConfig{
		State:   "VA",
		Configs: []Params{{TAU: 0.25, SYMP: 0.6, SHCompliance: 0.5, VHICompliance: 0.5}},
	}, StandardWhatIfs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckpointCostMatchesHeap fills the checkpoint store and holds its
// cost bound to what the checkpoints really keep alive: per checkpoint, the
// live heap after a GC grows by checkpointCost within 15%. A cost that
// undercounts lets the store hold more memory than its bound says.
func TestCheckpointCostMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("1:2000 population in short mode")
	}
	p := NewPipeline(93, WithScale(2000), WithParallelism(2))
	cfg := PredictionConfig{State: "VA", Configs: []Params{{TAU: 0.22, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}},
		Days: 90, SHStart: 20}
	cfg.fillDefaults(1)
	net, err := p.Network(cfg.State)
	if err != nil {
		t.Fatal(err)
	}
	db, err := p.DB(cfg.State)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(reps ...int) {
		for _, rep := range reps {
			job := SimJob{State: cfg.State, Replicate: rep, Params: cfg.Configs[0], Days: cfg.Days}
			if _, err := p.ensureCheckpoints(context.Background(), cfg, net, db, job, []int{30, 60}, p.Parallelism); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pool victim caches held
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	fill(0) // builds the network's lazy indexes outside the measurement
	heap0, st0 := liveHeap(), p.snapshotStats()
	fill(1, 2, 3, 4, 5, 6, 7, 8)
	heap1, st1 := liveHeap(), p.snapshotStats()
	if st1.Evictions != 0 || st1.Entries-st0.Entries != 16 {
		t.Fatalf("store holds %d new checkpoints with %d evictions, want 16 and none", st1.Entries-st0.Entries, st1.Evictions)
	}
	grown, cost := float64(heap1-heap0), float64(st1.Cost-st0.Cost)
	t.Logf("per checkpoint: live heap %.0f KB, checkpointCost %.0f KB", grown/16/1024, cost/16/1024)
	if r := grown / cost; r < 0.85 || r > 1.15 {
		t.Errorf("live heap grew %.0f bytes for checkpoints costed at %.0f (ratio %.2f, want within 15%%)", grown, cost, r)
	}
}

// snapshotStats reports the what-if checkpoint store counters (zero value
// when snapshot caching is disabled).
func (p *Pipeline) snapshotStats() castore.Stats {
	if p.snapshots == nil {
		return castore.Stats{}
	}
	return p.snapshots.Stats()
}
