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
	req := fidelity.Request{
		Workflow: spec.Workflow, State: spec.State,
		Days: spec.Days, SHStart: spec.SHStart, SHEnd: spec.SHEnd,
		Replicates:     spec.Replicates,
		Mode:           fidelity.Tier(spec.Fidelity),
		MaxUncertainty: spec.MaxUncertainty,
	}
	for _, c := range spec.Configs {
		req.Configs = append(req.Configs, c.toCore())
	}
	req.WhatIfs = whatIfScenarios(spec)
	return req
}

// FidelityPipelineRunner wraps the exact pipeline runner with the fidelity
// ladder. Specs without a fidelity field (and night specs, which have no
// surrogate) take the legacy path untouched — byte-identical responses.
// Specs with one are routed: surrogate tiers answer from the router's
// fitted emulator or corrected metapop; a TierABM decision runs the same
// legacy workflow code path and additionally feeds the outcome back to the
// router as training data.
func FidelityPipelineRunner(p *core.Pipeline, router *fidelity.Router) Runner {
	legacy := PipelineRunner(p)
	return func(ctx context.Context, spec Spec) (*Result, error) {
		if router == nil || spec.Fidelity == "" || spec.Workflow == WorkflowNight {
			return legacy(ctx, spec)
		}
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
}

// resultFromAnswer shapes a surrogate-tier answer like the corresponding
// workflow result.
func resultFromAnswer(spec Spec, d fidelity.Decision) (*Result, error) {
	ans := d.Answer
	if ans == nil {
		return nil, fmt.Errorf("scenario: tier %s decision carried no answer", d.Tier)
	}
	band := func(name string) (Band, error) {
		f, ok := ans.Series[name]
		if !ok {
			return Band{}, fmt.Errorf("scenario: tier %s answer missing series %q", d.Tier, name)
		}
		return bandFrom(f), nil
	}
	switch spec.Workflow {
	case WorkflowPrediction:
		pr := &PredictionResult{Counties: ans.Counties}
		var err error
		if pr.Confirmed, err = band(fidelity.SeriesConfirmed); err != nil {
			return nil, err
		}
		if pr.Hospitalized, err = band(fidelity.SeriesHospitalized); err != nil {
			return nil, err
		}
		if pr.Deaths, err = band(fidelity.SeriesDeaths); err != nil {
			return nil, err
		}
		return &Result{Prediction: pr}, nil
	case WorkflowWhatIf:
		res := &Result{}
		for _, w := range spec.WhatIfs {
			sr := ScenarioResult{Name: w.Name}
			var err error
			if sr.Confirmed, err = band(fidelity.ScenarioSeries(w.Name, fidelity.SeriesConfirmed)); err != nil {
				return nil, err
			}
			if sr.Deaths, err = band(fidelity.ScenarioSeries(w.Name, fidelity.SeriesDeaths)); err != nil {
				return nil, err
			}
			res.Scenarios = append(res.Scenarios, sr)
		}
		return res, nil
	default:
		return nil, fmt.Errorf("scenario: workflow %q has no surrogate answer shape", spec.Workflow)
	}
}
