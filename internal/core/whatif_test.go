package core

import (
	"context"
	"errors"
	"math"
	"reflect"
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
// swaps the scenario stack in and runs on — the computation the snapshot path
// shortcuts. It builds each simulation with the stage's simConfig, so seeds
// and seeding cannot drift from production, and shares nothing else with
// RunWhatIfScenariosCtx: no checkpoint, no log replay, no fan-out.
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
		for ci, pr := range cfg.Configs {
			for rep := 0; rep < cfg.Replicates; rep++ {
				scaled, ivs := sc.apply(pr, cfg.SHStart, cfg.SHEnd)
				job := SimJob{State: cfg.State, Cell: ci, Replicate: rep, Params: scaled, Days: cfg.Days}
				agg := output.NewCountyAggregator(net, cfg.Days)
				simCfg, err := p.simConfig(job, net, db, interventionsFor(pr, cfg.SHStart, cfg.SHEnd), agg)
				if err != nil {
					t.Fatal(err)
				}
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
				so.Sims = append(so.Sims, &SimOutput{Job: job, Result: res, Agg: agg})
			}
		}
		so.Confirmed = ensembleBand(so.Sims, cfg.Days, func(s *SimOutput) []float64 {
			return s.Agg.StateConfirmedCumulative()
		})
		so.Deaths = ensembleBand(so.Sims, cfg.Days, func(s *SimOutput) []float64 {
			return s.Agg.StateCumulative(disease.Dead)
		})
		outs = append(outs, so)
	}
	return outs
}

// TestWhatIfSharedMatchesUnshared is the workflow-level equivalence gate:
// branching every scenario from the shared-prefix snapshot must produce
// bit-identical forecasts to re-simulating each scenario's history from
// scratch. The scenarios span three distinct pivot days so the test also
// exercises the multi-checkpoint prefix walk.
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
	shared, err := p.RunWhatIfScenariosCtx(context.Background(), cfg, scenarios)
	if err != nil {
		t.Fatal(err)
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

// snapshotStats reports the what-if checkpoint store counters (zero value
// when snapshot caching is disabled).
func (p *Pipeline) snapshotStats() castore.Stats {
	if p.snapshots == nil {
		return castore.Stats{}
	}
	return p.snapshots.Stats()
}
