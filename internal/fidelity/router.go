package fidelity

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/obs"
)

// Config parameterizes a Router.
type Config struct {
	// Fingerprint is the owning pipeline's content fingerprint; it salts
	// every family key so training data never leaks across data/config
	// versions.
	Fingerprint string
	// Scale is the pipeline's population down-scaling factor (core
	// WithScale), so surrogate curves live on the ABM's synthetic scale.
	Scale int
	// MinFit is the number of design points a family needs before its GP
	// emulator fits. Default 8.
	MinFit int
	// MaxStale bounds staleness: once a family has accumulated this many
	// observations not yet reflected in its fitted snapshot, a refit is
	// scheduled. Default 4.
	MaxStale int
	// MaxFamilies / MaxBytes bound the castore-backed training-set cache.
	// Defaults 64 families / 64 MiB.
	MaxFamilies int
	MaxBytes    int64
}

func (c Config) withDefaults() Config {
	if c.MinFit <= 0 {
		c.MinFit = 8
	}
	if c.MaxStale <= 0 {
		c.MaxStale = 4
	}
	if c.MaxFamilies <= 0 {
		c.MaxFamilies = 64
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	return c
}

// Router picks the cheapest tier that can answer a request within its
// uncertainty budget, and turns reported ABM answers into training data.
// Safe for concurrent use.
type Router struct {
	cfg    Config
	mapper *metapopMapper

	mu       sync.Mutex // guards get-or-create on families
	families *castore.Store[*family]

	m metrics
}

// NewRouter builds a router for one pipeline.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{cfg: cfg, mapper: newMetapopMapper(cfg.Scale)}
	r.families = castore.New[*family](
		castore.WithMaxEntries[*family](cfg.MaxFamilies),
		castore.WithMaxCost[*family](cfg.MaxBytes, func(f *family) int64 { return f.cost() }),
	)
	return r
}

// family returns the training family for a request, creating it on first
// sight.
func (r *Router) family(req Request, key string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families.Get(key); ok {
		return f
	}
	f := newFamily(key, req)
	r.families.Put(key, f)
	return f
}

// Route decides which tier answers a request, computing the answer for the
// surrogate tiers. It never runs the ABM: a TierABM decision instructs the
// caller to run the legacy workflow (bit-identical to a router-less
// deployment) and report the outcome back via an Observe hook.
func (r *Router) Route(ctx context.Context, req Request) (Decision, error) {
	if req.Mode == "" {
		req.Mode = TierAuto
	}
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	key := req.FamilyKey(r.cfg.Fingerprint)
	budget := req.budget()
	d, err := r.decide(req, key, budget)
	if err != nil {
		return Decision{}, err
	}
	r.m.served(d.Tier)
	obs.Event(ctx, "fidelity.route",
		obs.String("tier", string(d.Tier)),
		obs.String("reason", d.Reason),
		obs.String("family", key[:12]),
		obs.Float("uncertainty", d.Uncertainty),
		obs.Float("budget", d.Budget))
	return d, nil
}

func (r *Router) decide(req Request, key string, budget float64) (Decision, error) {
	fam := r.family(req, key)
	snap := fam.snapshotView()
	base := Decision{Budget: budget, FamilyKey: key}

	switch req.Mode {
	case TierABM:
		base.Tier, base.Reason = TierABM, "forced"
		return base, nil
	case TierEmulator:
		if snap.emu == nil {
			return Decision{}, fmt.Errorf("fidelity: emulator not fitted for family %s (have %d of %d design points)",
				key[:12], fam.size(), r.cfg.MinFit)
		}
		ans, u := snap.emu.emulate(req)
		base.Tier, base.Reason, base.Uncertainty, base.Answer = TierEmulator, "forced", u, ans
		return base, nil
	case TierMetapop:
		ans, u, err := metapopAnswer(r.mapper, req, snap.corr)
		if err != nil {
			return Decision{}, err
		}
		base.Tier, base.Reason, base.Uncertainty, base.Answer = TierMetapop, "forced", u, ans
		return base, nil
	}

	// Auto mode: walk the ladder bottom-up, recording why each rung passes.
	reason := "no training data"
	if snap.emu != nil {
		if !allInRegion(snap.emu, req) {
			reason = "outside trained region"
		} else if ans, u := snap.emu.emulate(req); u > budget {
			reason = fmt.Sprintf("emulator uncertainty %.3g > budget %.3g", u, budget)
		} else {
			base.Tier, base.Uncertainty, base.Answer = TierEmulator, u, ans
			base.Reason = fmt.Sprintf("uncertainty %.3g within budget %.3g", u, budget)
			return base, nil
		}
	}
	if snap.corr != nil && snap.corr.err <= budget {
		ans, u, err := metapopAnswer(r.mapper, req, snap.corr)
		if err != nil {
			return Decision{}, err
		}
		base.Tier, base.Uncertainty, base.Answer = TierMetapop, u, ans
		base.Reason = fmt.Sprintf("%s; metapop error %.3g within budget %.3g", reason, u, budget)
		return base, nil
	}
	if snap.corr != nil {
		reason = fmt.Sprintf("%s; metapop error %.3g > budget %.3g", reason, snap.corr.err, budget)
	}
	r.m.escalated.Inc()
	base.Tier, base.Reason = TierABM, reason
	return base, nil
}

func allInRegion(e *emulator, req Request) bool {
	for _, pr := range req.Configs {
		if !e.inRegion(theta(pr)) {
			return false
		}
	}
	return true
}

// ObservePrediction records an ABM prediction outcome as training data: one
// observation per configuration, with per-series replicate-mean log1p
// curves.
func (r *Router) ObservePrediction(ctx context.Context, req Request, out *core.PredictionOutcome) error {
	if out == nil || len(out.Sims) == 0 {
		return nil
	}
	req.Workflow = WorkflowPrediction
	return r.observe(ctx, req, []harvest{
		{SeriesConfirmed, out.Sims, confirmedCurve},
		{SeriesHospitalized, out.Sims, func(s *core.SimOutput) []float64 {
			return s.StateCumulative(disease.Hospitalized)
		}},
		{SeriesDeaths, out.Sims, deathsCurve},
	})
}

// ObserveWhatIf records an ABM what-if outcome as training data, one
// observation per configuration spanning every scenario's series.
func (r *Router) ObserveWhatIf(ctx context.Context, req Request, outs []*core.ScenarioOutcome) error {
	if len(outs) == 0 {
		return nil
	}
	req.Workflow = WorkflowWhatIf
	var hs []harvest
	for _, o := range outs {
		if len(o.Sims) == 0 {
			return nil // outcome predates per-sim reporting; nothing to learn
		}
		hs = append(hs,
			harvest{ScenarioSeries(o.Scenario.Name, SeriesConfirmed), o.Sims, confirmedCurve},
			harvest{ScenarioSeries(o.Scenario.Name, SeriesDeaths), o.Sims, deathsCurve})
	}
	return r.observe(ctx, req, hs)
}

func confirmedCurve(s *core.SimOutput) []float64 { return s.ConfirmedCumulative() }
func deathsCurve(s *core.SimOutput) []float64    { return s.StateCumulative(disease.Dead) }

// observe folds the harvested series into the request's family, one
// observation per configuration, and refits the family on the calling
// goroutine when staleness crosses the bound.
func (r *Router) observe(ctx context.Context, req Request, hs []harvest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	cells := make([]seriesCells, len(hs))
	for i, h := range hs {
		cells[i] = h.cells(req.Days)
	}
	key := req.FamilyKey(r.cfg.Fingerprint)
	fam := r.family(req, key)
	names := req.seriesNames()
	var n, pending int
	for c, pr := range req.Configs {
		curves := make(map[string][]float64, len(hs))
		noise := 0.0
		for i, h := range hs {
			curves[h.name] = cells[i].mean[c]
			noise = math.Max(noise, cells[i].se[c])
		}
		if err := checkCurves(names, req.Days, curves); err != nil {
			return err
		}
		base, err := r.mapper.baseCurves(req, pr)
		if err != nil {
			return err
		}
		n, pending = fam.add(observation{theta: theta(pr), curves: curves, base: base, noise: noise})
		r.m.observations.Inc()
	}
	obs.Event(ctx, "fidelity.observe",
		obs.String("family", key[:12]),
		obs.Int("configs", int64(len(req.Configs))),
		obs.Int("train_n", int64(n)))
	// Re-Put refreshes the family's cost and LRU position now that it
	// holds more data.
	r.mu.Lock()
	r.families.Put(key, fam)
	r.mu.Unlock()
	if pending >= r.cfg.MaxStale || (n >= minCorrection && fam.snapshotView().n == 0) {
		fits, failed := fam.refit(r.cfg.MinFit, r.cfg.MaxStale)
		r.m.refits.Add(int64(fits))
		r.m.refitErrors.Add(int64(failed))
	}
	return nil
}

// TierState summarizes one rung's warm state for readiness reporting.
type TierState struct {
	Ready    bool   `json:"ready"`
	Families int    `json:"families,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Status reports per-tier warm state: how many families have a fitted
// emulator / metapop correction.
func (r *Router) Status() map[string]TierState {
	keys := r.families.Keys()
	fams := make([]*family, 0, len(keys))
	for _, k := range keys {
		if f, ok := r.families.Peek(k); ok {
			fams = append(fams, f)
		}
	}
	var fitted, corrected int
	for _, f := range fams {
		snap := f.snapshotView()
		if snap.emu != nil {
			fitted++
		}
		if snap.corr != nil {
			corrected++
		}
	}
	return map[string]TierState{
		string(TierEmulator): {Ready: fitted > 0, Families: fitted,
			Detail: fmt.Sprintf("%d of %d families fitted", fitted, len(fams))},
		string(TierMetapop): {Ready: true, Families: corrected,
			Detail: fmt.Sprintf("%d of %d families delta-corrected", corrected, len(fams))},
		string(TierABM): {Ready: true, Detail: "always available"},
	}
}
