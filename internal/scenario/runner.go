package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fidelity"
)

// pipelineRunner executes normalized specs against the shared pipeline's
// three production workflows. The pipeline memoizes networks, population
// databases and ground truth internally, so concurrent jobs for the same
// region share substrates. A spec with a fidelity field routes through the
// ladder when router is non-nil (runRouted); every other spec, and every
// night, takes the exact path untouched — byte-identical responses.
func pipelineRunner(p *core.Pipeline, router *fidelity.Router) Runner {
	return func(ctx context.Context, spec Spec) (*Result, error) {
		if router != nil && spec.Fidelity != "" && spec.Workflow != WorkflowNight {
			return runRouted(ctx, p, router, spec)
		}
		out, err := runABM(ctx, p, spec)
		return out.res, err
	}
}

// abmOutcome is one exact run's product: the served Result and, for the
// workflows the fidelity router learns from, the outcome it was shaped from.
type abmOutcome struct {
	res        *Result
	prediction *core.PredictionOutcome
	whatIf     []*core.ScenarioOutcome
}

// runABM is the one dispatch from a normalized spec to a pipeline workflow.
func runABM(ctx context.Context, p *core.Pipeline, spec Spec) (abmOutcome, error) {
	if p == nil {
		return abmOutcome{}, fmt.Errorf("scenario: no pipeline configured")
	}
	switch spec.Workflow {
	case WorkflowPrediction:
		out, err := p.RunPredictionWorkflowCtx(ctx, predictionConfig(spec))
		if err != nil {
			return abmOutcome{}, err
		}
		return abmOutcome{res: predictionResult(out), prediction: out}, nil
	case WorkflowWhatIf:
		outs, err := p.RunWhatIfScenariosCtx(ctx, predictionConfig(spec), whatIfScenarios(spec))
		if err != nil {
			return abmOutcome{}, err
		}
		return abmOutcome{res: whatIfResult(outs), whatIf: outs}, nil
	case WorkflowNight:
		res, err := runNight(ctx, p, spec)
		return abmOutcome{res: res}, err
	default:
		return abmOutcome{}, fmt.Errorf("scenario: unknown workflow %q", spec.Workflow)
	}
}

func predictionConfig(spec Spec) core.PredictionConfig {
	cfg := core.PredictionConfig{
		State: spec.State, Replicates: spec.Replicates, Days: spec.Days,
		SHStart: spec.SHStart, SHEnd: spec.SHEnd,
	}
	for _, c := range spec.Configs {
		cfg.Configs = append(cfg.Configs, c.toCore())
	}
	return cfg
}

func predictionResult(out *core.PredictionOutcome) *Result {
	return &Result{Prediction: &PredictionResult{
		Confirmed:    out.Confirmed,
		Hospitalized: out.Hospitalized,
		Deaths:       out.Deaths,
		Counties:     out.Counties,
	}}
}

func whatIfScenarios(spec Spec) []core.WhatIf {
	var scenarios []core.WhatIf
	for _, w := range spec.WhatIfs {
		scenarios = append(scenarios, w.toCore())
	}
	return scenarios
}

func whatIfResult(outs []*core.ScenarioOutcome) *Result {
	res := &Result{}
	for _, o := range outs {
		res.Scenarios = append(res.Scenarios, ScenarioResult{
			Name:      o.Scenario.Name,
			Confirmed: o.Confirmed,
			Deaths:    o.Deaths,
		})
	}
	return res
}

func runNight(ctx context.Context, p *core.Pipeline, spec Spec) (*Result, error) {
	n := spec.Night
	rep, err := p.RunNightCtx(ctx, core.NightConfig{
		Spec: n.workflowSpec(), Heuristic: n.Heuristic, Seed: n.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Night: &NightResult{
		Tasks:       rep.Tasks,
		Completed:   rep.Completed,
		Unstarted:   rep.Unstarted,
		Retries:     rep.Retries,
		Shed:        len(rep.Shed),
		Makespan:    rep.Makespan,
		Utilization: rep.Utilization,
		FitsWindow:  rep.FitsWindow,
		ConfigBytes: rep.ConfigBytes,
		SummaryB:    rep.SummaryBytes,
		RawBytes:    rep.RawBytes,
	}}, nil
}
