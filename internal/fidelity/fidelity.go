// Package fidelity implements the serving tier's fidelity ladder: a router
// that answers a normalized scenario request from the cheapest model that
// can meet the request's uncertainty budget. Three tiers are available, in
// ascending cost and fidelity:
//
//   - emulator: a per-family Gaussian-process emulator (internal/gp) over
//     the calibrated parameter space, trained on curves harvested from past
//     ABM answers — microseconds per query, with a predictive variance that
//     doubles as the escalation signal;
//   - metapop: the county metapopulation SEIR (internal/metapop) mapped
//     from the request's parameters and corrected by a per-day delta model
//     learned against the same ABM training curves — milliseconds;
//   - abm: the full agent-based workflow (internal/core) — seconds; the
//     router never runs it, it only decides that the caller must.
//
// "Simulating Larger Models Using Smaller Ones" (PAPERS.md) motivates the
// design: most planning queries land near previously simulated
// configurations, where a cheap surrogate is indistinguishable from the
// large model — so the expensive simulator should only burn CPU on queries
// the surrogate provably cannot answer.
//
// Routing is per config-family: requests that differ only in their
// calibrated parameter configurations share one training set, keyed by a
// SHA-256 fingerprint of everything else (workflow, region, horizon,
// mitigation schedule, what-if stack, pipeline fingerprint). Each family
// maintains the emulator's trained region (the bounding box of its design
// points), a LOO-CV variance calibration (internal/gp/loocv.go), and the
// metapop delta correction. Every ABM answer the caller reports back via
// the Observe hooks becomes a new design point; the Observe call that
// crosses the staleness bound refits the family before it returns, and
// concurrent triggers coalesce onto the refit already running. The router
// starts no goroutine of its own.
//
// Escalation rule, in auto mode: serve from the emulator iff the family is
// fitted, every requested configuration lies inside the trained region, and
// the (LOO-CV-inflated) predictive uncertainty is within the request's
// budget; otherwise serve from the corrected metapop iff its empirical
// error estimate is within budget; otherwise escalate to the ABM. Forced
// modes bypass the gates. The uncertainty number is a 95% relative error
// bound: predictions and truth are compared as log1p curves, where an
// absolute deviation u approximates a relative deviation of u in natural
// units.
package fidelity

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// Tier names a rung of the fidelity ladder (or the auto mode that picks
// one).
type Tier string

// The ladder's tiers, plus the auto mode.
const (
	TierAuto     Tier = "auto"
	TierEmulator Tier = "emulator"
	TierMetapop  Tier = "metapop"
	TierABM      Tier = "abm"
)

// ParseTier normalizes a tier name case-insensitively. The empty string is
// not a tier — callers that treat "" as "legacy ABM path" must branch
// before parsing.
func ParseTier(s string) (Tier, error) {
	switch t := Tier(strings.ToLower(strings.TrimSpace(s))); t {
	case TierAuto, TierEmulator, TierMetapop, TierABM:
		return t, nil
	default:
		return "", fmt.Errorf("fidelity: unknown tier %q (want %s|%s|%s|%s)",
			s, TierAuto, TierEmulator, TierMetapop, TierABM)
	}
}

// Workflows the ladder can serve.
const (
	WorkflowPrediction = "prediction"
	WorkflowWhatIf     = "whatif"
)

// Series names: the curves a family emulates. Prediction families carry
// the three state-level targets; what-if families carry confirmed and
// deaths per scenario, named via ScenarioSeries.
const (
	SeriesConfirmed    = "confirmed"
	SeriesHospitalized = "hospitalized"
	SeriesDeaths       = "deaths"
)

// ScenarioSeries names one what-if scenario's curve, e.g. "sh-lifted/confirmed".
func ScenarioSeries(scenario, series string) string { return scenario + "/" + series }

// Request is a normalized scenario request as the router sees it: the
// family-defining shape plus the configurations to answer for.
type Request struct {
	// Workflow is prediction or whatif.
	Workflow string
	// State is the region postal code.
	State string
	// Days / SHStart / SHEnd / Replicates shape the simulated curves and
	// are part of the family key.
	Days, SHStart, SHEnd, Replicates int
	// Configs are the calibrated parameter points to answer for. They are
	// NOT part of the family key — the emulator generalizes over them.
	Configs []core.Params
	// WhatIfs is the scenario stack (whatif workflow only); part of the
	// family key.
	WhatIfs []core.WhatIf
	// Mode selects the tier (TierAuto gates on uncertainty).
	Mode Tier
	// MaxUncertainty is the auto mode's escalation budget: the maximum
	// acceptable 95% relative error of a surrogate answer. Zero or
	// negative takes DefaultBudget.
	MaxUncertainty float64
}

// DefaultBudget is the escalation budget when a request does not state one.
const DefaultBudget = 0.1

// Validate rejects malformed requests before any routing state is touched.
func (r Request) Validate() error {
	switch r.Workflow {
	case WorkflowPrediction, WorkflowWhatIf:
	default:
		return fmt.Errorf("fidelity: workflow %q not servable", r.Workflow)
	}
	if r.State == "" {
		return fmt.Errorf("fidelity: missing state")
	}
	if r.Days <= 0 {
		return fmt.Errorf("fidelity: non-positive horizon %d", r.Days)
	}
	if len(r.Configs) == 0 {
		return fmt.Errorf("fidelity: no configurations to answer for")
	}
	if math.IsNaN(r.MaxUncertainty) || math.IsInf(r.MaxUncertainty, 0) || r.MaxUncertainty < 0 {
		return fmt.Errorf("fidelity: bad uncertainty budget %v", r.MaxUncertainty)
	}
	if r.Workflow == WorkflowWhatIf && len(r.WhatIfs) == 0 {
		return fmt.Errorf("fidelity: whatif request without scenarios")
	}
	if _, err := ParseTier(string(r.Mode)); err != nil {
		return err
	}
	return nil
}

// budget resolves the effective escalation budget.
func (r Request) budget() float64 {
	if r.MaxUncertainty > 0 {
		return r.MaxUncertainty
	}
	return DefaultBudget
}

// seriesNames lists the curves this request's family trains on, in
// deterministic order.
func (r Request) seriesNames() []string {
	if r.Workflow == WorkflowPrediction {
		return []string{SeriesConfirmed, SeriesHospitalized, SeriesDeaths}
	}
	names := make([]string, 0, 2*len(r.WhatIfs))
	for _, w := range r.WhatIfs {
		names = append(names, ScenarioSeries(w.Name, SeriesConfirmed),
			ScenarioSeries(w.Name, SeriesDeaths))
	}
	return names
}

// familyKeyPayload is the canonical family-defining shape — everything that
// changes the meaning of a curve except the parameter configurations.
type familyKeyPayload struct {
	Workflow   string
	State      string
	Days       int
	SHStart    int
	SHEnd      int
	Replicates int
	WhatIfs    []core.WhatIf
}

// FamilyKey content-addresses the request's config family under a pipeline
// fingerprint: two requests share training data iff their keys match.
func (r Request) FamilyKey(fingerprint string) string {
	canon, _ := json.Marshal(familyKeyPayload{
		Workflow: r.Workflow, State: r.State, Days: r.Days,
		SHStart: r.SHStart, SHEnd: r.SHEnd, Replicates: r.Replicates,
		WhatIfs: r.WhatIfs,
	})
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// theta flattens a configuration into the emulator's input space.
func theta(p core.Params) [paramDim]float64 {
	return [paramDim]float64{p.TAU, p.SYMP, p.SHCompliance, p.VHICompliance}
}

// paramDim is the dimensionality of the calibrated parameter space.
const paramDim = 4

// Answer is a surrogate-tier result: one forecast band per series, in
// natural units.
type Answer struct {
	// Series maps series names (see seriesNames) to bands. Median is the
	// surrogate's central curve; Lo/Hi bracket its ±2 SD envelope across
	// the requested configurations.
	Series map[string]core.Forecast
	// Counties reports how many counties the tier resolves: the metapop
	// tier carries the state's county count, the emulator is state-level
	// only (0).
	Counties int
}

// Decision is the router's verdict on one request.
type Decision struct {
	// Tier is the rung that answers: TierEmulator, TierMetapop or TierABM.
	Tier Tier
	// Reason explains the choice ("forced", "within budget", or the
	// escalation cause: "no training data", "outside trained region",
	// "uncertainty 0.23 > budget 0.10", ...).
	Reason string
	// Uncertainty is the serving tier's 95% relative error estimate
	// (0 for the ABM tier — it is the ground truth).
	Uncertainty float64
	// Budget echoes the effective escalation budget the decision used.
	Budget float64
	// FamilyKey identifies the training family consulted.
	FamilyKey string
	// Answer carries the surrogate result; nil when Tier == TierABM (the
	// caller runs the workflow itself and reports back via Observe).
	Answer *Answer
}
