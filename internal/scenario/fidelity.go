package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fidelity"
)

// fidelityRequest maps a normalized spec onto the router's request shape.
// The spec must be normalized (tier lowercased, budget defaulted) — the
// service only runs normalized specs.
func fidelityRequest(spec Spec) fidelity.Request {
	cfg := predictionConfig(spec)
	return fidelity.Request{
		Workflow: spec.Workflow, State: cfg.State,
		Days: cfg.Days, SHStart: cfg.SHStart, SHEnd: cfg.SHEnd, Replicates: cfg.Replicates,
		Configs: cfg.Configs, WhatIfs: whatIfScenarios(spec),
		Mode: fidelity.Tier(spec.Fidelity), MaxUncertainty: spec.MaxUncertainty,
	}
}

// runRouted answers a spec from the rung the router picks: the surrogate
// tiers answer from the fitted emulator or the corrected metapop; a TierABM
// decision runs the exact workflow and feeds the outcome back to the
// router as training data.
func runRouted(ctx context.Context, p *core.Pipeline, router *fidelity.Router, spec Spec) (*Result, error) {
	req := fidelityRequest(spec)
	d, err := router.Route(ctx, req)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch d.Tier {
	case fidelity.TierABM:
		out, err := runABM(ctx, p, spec)
		if err != nil {
			return nil, err
		}
		switch {
		case out.prediction != nil:
			err = router.ObservePrediction(ctx, req, out.prediction)
		case out.whatIf != nil:
			err = router.ObserveWhatIf(ctx, req, out.whatIf)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: recording fidelity observation: %w", err)
		}
		res = out.res
	case fidelity.TierEmulator, fidelity.TierMetapop:
		res, err = resultFromAnswer(spec, d)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: unexpected fidelity tier %q", d.Tier)
	}
	res.Tier = string(d.Tier)
	res.TierReason = d.Reason
	res.Uncertainty = d.Uncertainty
	return res, nil
}

// resultFromAnswer shapes a surrogate-tier answer like the corresponding
// workflow result.
func resultFromAnswer(spec Spec, d fidelity.Decision) (*Result, error) {
	ans := d.Answer
	if ans == nil {
		return nil, fmt.Errorf("scenario: tier %s decision carried no answer", d.Tier)
	}
	var missing error // the first series the answer lacks
	band := func(name string) core.Forecast {
		f, ok := ans.Series[name]
		if !ok && missing == nil {
			missing = fmt.Errorf("scenario: tier %s answer missing series %q", d.Tier, name)
		}
		return f
	}
	res := &Result{}
	switch spec.Workflow {
	case WorkflowPrediction:
		res.Prediction = &PredictionResult{Counties: ans.Counties, Confirmed: band(fidelity.SeriesConfirmed),
			Hospitalized: band(fidelity.SeriesHospitalized), Deaths: band(fidelity.SeriesDeaths)}
	case WorkflowWhatIf:
		for _, w := range spec.WhatIfs {
			res.Scenarios = append(res.Scenarios, ScenarioResult{Name: w.Name,
				Confirmed: band(fidelity.ScenarioSeries(w.Name, fidelity.SeriesConfirmed)),
				Deaths:    band(fidelity.ScenarioSeries(w.Name, fidelity.SeriesDeaths))})
		}
	default:
		return nil, fmt.Errorf("scenario: workflow %q has no surrogate answer shape", spec.Workflow)
	}
	if missing != nil {
		return nil, missing
	}
	return res, nil
}
