package faults

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Counters books what the fault model injected and what the recovery layer
// did about it, with atomic fields so the concurrent executors and the
// recovery loop can bump them lock-free. Counting never influences a fault
// decision — the model stays a pure hash — so enabling counters cannot
// perturb a deterministic trace. Recovery tests assert on these counts
// directly instead of re-deriving them from reports.
type Counters struct {
	// Crashes / DBRefusals / TransferStalls count injected faults by class.
	Crashes        atomic.Int64
	DBRefusals     atomic.Int64
	TransferStalls atomic.Int64
	// Recovered counts previously-failed tasks that a requeue eventually
	// completed; Shed counts tasks dropped by the recovery policy.
	Recovered atomic.Int64
	Shed      atomic.Int64
}

// CountersSnapshot is a point-in-time copy of the counters.
type CountersSnapshot struct {
	Crashes, DBRefusals, TransferStalls int64
	Recovered, Shed                     int64
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Crashes:        c.Crashes.Load(),
		DBRefusals:     c.DBRefusals.Load(),
		TransferStalls: c.TransferStalls.Load(),
		Recovered:      c.Recovered.Load(),
		Shed:           c.Shed.Load(),
	}
}

// Register exposes the counters on a metrics registry as the fault series
// of the unified /metrics endpoint.
func (c *Counters) Register(reg *obs.Registry) {
	reg.Help("epi_faults_injected_total", "injected faults by class")
	reg.CounterFunc(`epi_faults_injected_total{kind="crash"}`,
		func() float64 { return float64(c.Crashes.Load()) })
	reg.CounterFunc(`epi_faults_injected_total{kind="db_refusal"}`,
		func() float64 { return float64(c.DBRefusals.Load()) })
	reg.CounterFunc(`epi_faults_injected_total{kind="transfer_stall"}`,
		func() float64 { return float64(c.TransferStalls.Load()) })
	reg.Help("epi_faults_recovered_total", "failed tasks completed after requeue")
	reg.CounterFunc("epi_faults_recovered_total",
		func() float64 { return float64(c.Recovered.Load()) })
	reg.Help("epi_faults_shed_total", "tasks dropped by the recovery policy")
	reg.CounterFunc("epi_faults_shed_total",
		func() float64 { return float64(c.Shed.Load()) })
}
