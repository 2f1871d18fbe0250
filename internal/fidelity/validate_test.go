package fidelity

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/disease"
)

// TestValidationSweep is the PR's acceptance gate: train the ladder on a
// design-point sweep, then check that ≥95% of auto-routed held-out queries
// fall within the decision's declared uncertainty bound against ABM ground
// truth computed at the same statistic the emulator trains on (the
// replicate-mean log1p curve — deviations in that space are relative errors
// in natural units). The pipeline is seeded, so the sweep is deterministic:
// it either always passes or always fails.
func TestValidationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full ABM training sweep")
	}
	const scale = 5000
	ctx := context.Background()
	p := core.NewPipeline(2020, core.WithScale(scale), core.WithParallelism(2))
	r := NewRouter(Config{Fingerprint: p.Fingerprint(), Scale: scale, MinFit: 10, MaxStale: 1})

	base := Request{
		Workflow: WorkflowPrediction, State: "VA",
		Days: 40, SHStart: 15, SHEnd: 40, Replicates: 2,
		Mode: TierAuto,
	}

	// Training design: a 2-D sweep over the active parameters (TAU,
	// SHCompliance); SYMP and VHICompliance stay at the case-study values.
	train := [][2]float64{
		{0.16, 0.30}, {0.16, 0.70}, {0.24, 0.30}, {0.24, 0.70},
		{0.18, 0.40}, {0.18, 0.60}, {0.22, 0.40}, {0.22, 0.60},
		{0.20, 0.30}, {0.20, 0.50}, {0.20, 0.70}, {0.17, 0.55},
	}
	cfgAt := func(tau, shc float64) core.Params {
		return core.Params{TAU: tau, SYMP: 0.65, SHCompliance: shc, VHICompliance: 0.5}
	}
	runABM := func(pr core.Params) *core.PredictionOutcome {
		t.Helper()
		out, err := p.RunPredictionWorkflowCtx(ctx, core.PredictionConfig{
			State: base.State, Replicates: base.Replicates, Days: base.Days,
			SHStart: base.SHStart, SHEnd: base.SHEnd, Configs: []core.Params{pr},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, d := range train {
		req := base
		req.Configs = []core.Params{cfgAt(d[0], d[1])}
		if err := r.ObservePrediction(ctx, req, runABM(req.Configs[0])); err != nil {
			t.Fatal(err)
		}
	}

	// Held-out queries, all inside the trained region.
	held := [][2]float64{
		{0.17, 0.45}, {0.19, 0.35}, {0.19, 0.65}, {0.21, 0.50},
		{0.21, 0.38}, {0.23, 0.55}, {0.18, 0.52}, {0.22, 0.67},
	}
	truthStat := func(out *core.PredictionOutcome, name string) []float64 {
		extract := map[string]func(*core.SimOutput) []float64{
			SeriesConfirmed:    confirmedCurve,
			SeriesHospitalized: func(s *core.SimOutput) []float64 { return s.StateCumulative(disease.Hospitalized) },
			SeriesDeaths:       deathsCurve,
		}[name]
		return harvest{name, out.Sims, extract}.cells(base.Days).mean[0]
	}

	within := 0
	emulated := 0
	for _, q := range held {
		req := base
		req.Configs = []core.Params{cfgAt(q[0], q[1])}
		req.MaxUncertainty = 2.0 // loose budget: routing picks the surrogate, the check uses the declared bound
		d, err := r.Route(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Tier == TierABM {
			t.Fatalf("held-out in-region query (%v) escalated: %s", q, d.Reason)
		}
		if d.Tier == TierEmulator {
			emulated++
		}
		truthOut := runABM(req.Configs[0])
		worst := 0.0
		for _, name := range req.seriesNames() {
			truth := truthStat(truthOut, name)
			pred := d.Answer.Series[name].Median
			for day := 0; day < base.Days; day++ {
				dev := math.Abs(math.Log1p(math.Max(0, pred[day])) - truth[day])
				if dev > worst {
					worst = dev
				}
			}
		}
		if worst <= d.Uncertainty {
			within++
		} else {
			t.Logf("query %v: worst deviation %.4f > declared %.4f (tier %s)", q, worst, d.Uncertainty, d.Tier)
		}
	}
	if emulated == 0 {
		t.Fatalf("no held-out query was served by the emulator")
	}
	frac := float64(within) / float64(len(held))
	t.Logf("validation: %d/%d within declared bound (%.0f%%), %d emulator-served",
		within, len(held), 100*frac, emulated)
	if frac < 0.95 {
		t.Fatalf("only %.0f%% of held-out queries within the declared bound, want ≥95%%", 100*frac)
	}
}

// TestWhatIfLadder trains on what-if outcomes and serves a scenario request
// from the surrogates.
func TestWhatIfLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ABM what-if training")
	}
	const scale = 40000
	ctx := context.Background()
	p := core.NewPipeline(2020, core.WithScale(scale), core.WithParallelism(2))
	r := NewRouter(Config{Fingerprint: p.Fingerprint(), Scale: scale, MinFit: 4, MaxStale: 1})

	whatifs := []core.WhatIf{
		{Name: "sh-extended", SHEndShift: 20},
		{Name: "sh-lifted", SHEndShift: -10},
	}
	base := Request{
		Workflow: WorkflowWhatIf, State: "VA",
		Days: 35, SHStart: 15, SHEnd: 35, Replicates: 2,
		WhatIfs: whatifs, Mode: TierAuto,
	}
	taus := []float64{0.16, 0.19, 0.22, 0.25}
	for _, tau := range taus {
		req := base
		req.Configs = []core.Params{{TAU: tau, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}}
		outs, err := p.RunWhatIfScenariosCtx(ctx, core.PredictionConfig{
			State: req.State, Replicates: req.Replicates, Days: req.Days,
			SHStart: req.SHStart, SHEnd: req.SHEnd, Configs: req.Configs,
		}, whatifs)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ObserveWhatIf(ctx, req, outs); err != nil {
			t.Fatal(err)
		}
	}
	req := base
	req.Configs = []core.Params{{TAU: 0.2, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}}
	req.MaxUncertainty = 2.0
	d, err := r.Route(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tier != TierEmulator {
		t.Fatalf("trained what-if family routed to %s (%s), want emulator", d.Tier, d.Reason)
	}
	checkAnswerShape(t, d.Answer, req)
	for _, w := range whatifs {
		for _, s := range []string{SeriesConfirmed, SeriesDeaths} {
			if _, ok := d.Answer.Series[ScenarioSeries(w.Name, s)]; !ok {
				t.Errorf("missing scenario series %s/%s", w.Name, s)
			}
		}
	}
}
