package scenario

import "repro/internal/core"

// PredictionResult is the prediction workflow's product.
type PredictionResult struct {
	Confirmed    core.Forecast `json:"confirmed"`
	Hospitalized core.Forecast `json:"hospitalized"`
	Deaths       core.Forecast `json:"deaths"`
	// Counties is the number of counties the answering tier resolves: the
	// region's county count from the ABM and metapop tiers, 0 from the
	// state-level emulator.
	Counties int `json:"counties"`
}

// ScenarioResult is one what-if scenario's forecast.
type ScenarioResult struct {
	Name      string        `json:"name"`
	Confirmed core.Forecast `json:"confirmed"`
	Deaths    core.Forecast `json:"deaths"`
}

// NightResult summarizes a simulated night (the NightReport essentials).
type NightResult struct {
	Tasks       int     `json:"tasks"`
	Completed   int     `json:"completed"`
	Unstarted   int     `json:"unstarted"`
	Retries     int     `json:"retries"`
	Shed        int     `json:"shed"`
	Makespan    float64 `json:"makespan_seconds"`
	Utilization float64 `json:"utilization"`
	FitsWindow  bool    `json:"fits_window"`
	ConfigBytes int64   `json:"config_bytes"`
	SummaryB    int64   `json:"summary_bytes"`
	RawBytes    int64   `json:"raw_bytes"`
}

// Result is a completed scenario run, keyed by the spec's content address.
// Exactly one of Prediction / Scenarios / Night is populated, matching the
// spec's workflow.
type Result struct {
	Hash     string `json:"hash"`
	Workflow string `json:"workflow"`
	Spec     Spec   `json:"spec"`

	Prediction *PredictionResult `json:"prediction,omitempty"`
	Scenarios  []ScenarioResult  `json:"scenarios,omitempty"`
	Night      *NightResult      `json:"night,omitempty"`

	// ElapsedSeconds is the wall time of the computation that produced the
	// result (cache hits keep the original run's time).
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Tier / TierReason / Uncertainty report the fidelity ladder's routing:
	// which rung answered, why, and its 95% relative error estimate. All
	// empty on the legacy path (fidelity unset), keeping those payloads
	// byte-identical to pre-ladder responses.
	Tier        string  `json:"tier,omitempty"`
	TierReason  string  `json:"tier_reason,omitempty"`
	Uncertainty float64 `json:"uncertainty,omitempty"`
}
