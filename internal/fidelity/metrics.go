package fidelity

import "repro/internal/obs"

// metrics holds the router's internal counters. A zero obs.Counter needs no
// registry: the router counts unconditionally and RegisterMetrics exposes
// the values lazily, so a router without a registry costs one atomic add
// per event.
type metrics struct {
	servedEmulator obs.Counter
	servedMetapop  obs.Counter
	servedABM      obs.Counter
	escalated      obs.Counter
	observations   obs.Counter
	refits         obs.Counter
	refitErrors    obs.Counter
}

func (m *metrics) served(t Tier) {
	switch t {
	case TierEmulator:
		m.servedEmulator.Inc()
	case TierMetapop:
		m.servedMetapop.Inc()
	case TierABM:
		m.servedABM.Inc()
	}
}

// RegisterMetrics exposes the router's counters and the training-set
// cache's stats on a registry:
//
//	epi_fidelity_served_total{tier=...}  decisions per serving tier
//	epi_fidelity_escalations_total       auto-mode budget escalations to ABM
//	epi_fidelity_observations_total      ABM answers folded into training sets
//	epi_fidelity_refits_total            completed emulator/correction refits
//	epi_fidelity_refit_errors_total      refits that failed to fit
//	epi_fidelity_families                resident config families
//	epi_fidelity_fitted_families         families with a fitted emulator
//	epi_fidelity_train_*                 castore stats for the training cache
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	reg.Help("epi_fidelity_served_total", "Fidelity routing decisions by serving tier.")
	reg.CounterFunc(`epi_fidelity_served_total{tier="emulator"}`,
		func() float64 { return float64(r.m.servedEmulator.Value()) })
	reg.CounterFunc(`epi_fidelity_served_total{tier="metapop"}`,
		func() float64 { return float64(r.m.servedMetapop.Value()) })
	reg.CounterFunc(`epi_fidelity_served_total{tier="abm"}`,
		func() float64 { return float64(r.m.servedABM.Value()) })
	reg.Help("epi_fidelity_escalations_total", "Auto-mode escalations to the ABM tier.")
	reg.CounterFunc("epi_fidelity_escalations_total",
		func() float64 { return float64(r.m.escalated.Value()) })
	reg.Help("epi_fidelity_observations_total", "ABM answers recorded as emulator training observations.")
	reg.CounterFunc("epi_fidelity_observations_total",
		func() float64 { return float64(r.m.observations.Value()) })
	reg.CounterFunc("epi_fidelity_refits_total",
		func() float64 { return float64(r.m.refits.Value()) })
	reg.CounterFunc("epi_fidelity_refit_errors_total",
		func() float64 { return float64(r.m.refitErrors.Value()) })
	reg.GaugeFunc("epi_fidelity_families",
		func() float64 { return float64(r.families.Len()) })
	reg.GaugeFunc("epi_fidelity_fitted_families",
		func() float64 { return float64(r.FittedFamilies()) })
	r.families.RegisterMetrics(reg, "epi_fidelity_train")
}
