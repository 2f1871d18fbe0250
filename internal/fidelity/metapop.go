package fidelity

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/metapop"
	"repro/internal/synthpop"
)

// metapopMapper turns router requests into county metapopulation SEIR runs
// — the ladder's middle rung. The mapping from the ABM's calibrated
// parameters (TAU, SYMP, compliances) to SEIR rates is a fixed analytic
// approximation; the systematic error it leaves is exactly what the
// per-family delta correction (family.go) learns from ABM answers, so the
// raw mapping only has to correlate with the ABM, not match it.
type metapopMapper struct {
	// scale is the pipeline's population down-scaling factor, so metapop
	// curves live on the same synthetic-person scale as ABM curves.
	scale int

	mu     sync.Mutex
	models map[string]*metapop.Model
}

func newMetapopMapper(scale int) *metapopMapper {
	if scale <= 0 {
		scale = 1
	}
	return &metapopMapper{scale: scale, models: map[string]*metapop.Model{}}
}

// model returns the cached metapopulation geography for a state, scaled to
// the pipeline's synthetic population.
func (m *metapopMapper) model(state string) (*metapop.Model, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mdl, ok := m.models[state]; ok {
		return mdl, nil
	}
	st, err := synthpop.StateByCode(state)
	if err != nil {
		return nil, err
	}
	st.Population /= m.scale
	if st.Population < st.Counties {
		st.Population = st.Counties
	}
	mdl, err := metapop.NewFromState(st, 0)
	if err != nil {
		return nil, err
	}
	m.models[state] = mdl
	return mdl, nil
}

// seirParams maps a calibrated ABM configuration to SEIR rates. COVID-like
// latent (3d) and infectious (5d) periods; transmission scales with TAU and
// detection with the symptomatic fraction.
func seirParams(p core.Params) metapop.Params {
	return metapop.Params{
		Beta:   1.5 * p.TAU,
		Sigma:  1.0 / 3.0,
		Gamma:  1.0 / 5.0,
		Detect: clamp01(0.6 * p.SYMP),
	}
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

// baselineScenarios mirrors core.interventionsFor as transmission-reduction
// windows: school closure over [SHStart, end), stay-at-home over
// [SHStart+15, end) scaled by compliance, and voluntary home isolation as a
// horizon-wide damping.
func baselineScenarios(p core.Params, shStart, end, days int) []metapop.Scenario {
	return []metapop.Scenario{
		{Name: "school-closure", Start: shStart, End: end, Factor: 0.85},
		{Name: "stay-at-home", Start: shStart + 15, End: end, Factor: 1 - 0.5*clamp01(p.SHCompliance)},
		{Name: "vhi", Start: 0, End: days, Factor: 1 - 0.25*clamp01(p.VHICompliance)},
	}
}

// scenarioStack builds the metapop scenario windows for one what-if layered
// on the baseline: the modified stack takes effect at the pivot, mirroring
// the ABM's counterfactual-from-pivot semantics.
func scenarioStack(req Request, p core.Params, w *core.WhatIf) []metapop.Scenario {
	end := req.SHEnd
	sp := p
	pivot := req.SHStart
	if w != nil {
		if w.PivotDay > 0 {
			pivot = w.PivotDay
		}
		end += w.SHEndShift
		if end < req.SHStart {
			end = req.SHStart
		}
		if w.ComplianceScale > 0 {
			sp.SHCompliance = clamp01(p.SHCompliance * w.ComplianceScale)
			sp.VHICompliance = clamp01(p.VHICompliance * w.ComplianceScale)
		}
	}
	scs := baselineScenarios(sp, req.SHStart, end, req.Days)
	if w != nil {
		if w.AddTesting > 0 {
			scs = append(scs, metapop.Scenario{
				Name: "test-isolate", Start: pivot, End: req.Days,
				Factor: 1 - 0.3*clamp01(w.AddTesting),
			})
		}
		if w.AddTracing > 0 {
			scs = append(scs, metapop.Scenario{
				Name: "tracing", Start: pivot, End: req.Days,
				Factor: 1 - 0.1*clamp01(w.TraceDetectProb),
			})
		}
	}
	return scs
}

// seedCases mirrors the ABM's default seeding (5 initial cases in the most
// populous county).
const seedCases = 5

// runCurve integrates the mapped SEIR and returns the log1p state
// cumulative confirmed curve.
func (m *metapopMapper) runCurve(req Request, p core.Params, w *core.WhatIf) ([]float64, error) {
	mdl, err := m.model(req.State)
	if err != nil {
		return nil, err
	}
	cum, err := mdl.StateCurve(seirParams(p), req.Days,
		[]metapop.Seed{{CountyIndex: 0, Infectious: seedCases}},
		scenarioStack(req, p, w))
	if err != nil {
		return nil, err
	}
	for d, v := range cum { // into the log1p space every surrogate works in
		cum[d] = math.Log1p(math.Max(0, v))
	}
	return cum, nil
}

// baseCurves returns the metapop base curves for one configuration, one per
// family series name. Confirmed-type and deaths-type series share the same
// base dynamic — the per-day delta correction learns the level shift (IFR,
// detection, down-scaling) separately per series.
func (m *metapopMapper) baseCurves(req Request, p core.Params) (map[string][]float64, error) {
	out := map[string][]float64{}
	if req.Workflow == WorkflowPrediction {
		c, err := m.runCurve(req, p, nil)
		if err != nil {
			return nil, err
		}
		out[SeriesConfirmed] = c
		out[SeriesHospitalized] = c
		out[SeriesDeaths] = c
		return out, nil
	}
	for i := range req.WhatIfs {
		w := req.WhatIfs[i]
		c, err := m.runCurve(req, p, &w)
		if err != nil {
			return nil, err
		}
		out[ScenarioSeries(w.Name, SeriesConfirmed)] = c
		out[ScenarioSeries(w.Name, SeriesDeaths)] = c
	}
	return out, nil
}

// counties reports the county count the metapop tier models for a state.
func (m *metapopMapper) counties(state string) int {
	mdl, err := m.model(state)
	if err != nil {
		return 0
	}
	return len(mdl.Counties)
}

// expm1Clamped maps a log1p-space value back to natural units, clamping at
// zero.
func expm1Clamped(v float64) float64 { return math.Max(0, math.Expm1(v)) }

// checkCurves validates that an observation's curves match the family's
// series and horizon.
func checkCurves(names []string, days int, curves map[string][]float64) error {
	if len(curves) != len(names) {
		return fmt.Errorf("fidelity: observation has %d series, family wants %d", len(curves), len(names))
	}
	for _, n := range names {
		c, ok := curves[n]
		if !ok {
			return fmt.Errorf("fidelity: observation missing series %q", n)
		}
		if len(c) != days {
			return fmt.Errorf("fidelity: series %q has %d days, family wants %d", n, len(c), days)
		}
	}
	return nil
}
