package transfer

import "repro/internal/obs"

// Snapshot is the ledger's aggregate state at one instant — the numbers the
// unified /metrics endpoint and the nightly trace summary report.
type Snapshot struct {
	// Transfers is the number of completed transfers.
	Transfers int
	// BytesHomeToRemote / BytesRemoteToHome split moved bytes by direction.
	BytesHomeToRemote int64
	BytesRemoteToHome int64
	// Retries is the total stalled-attempt count across all transfers.
	Retries int
	// Seconds is the total modeled transfer wall time.
	Seconds float64
	// WindowViolations counts transfers whose elapsed time exceeded the
	// ledger's WindowSeconds (0 when no window is configured).
	WindowViolations int
}

// Snapshot aggregates the ledger under its lock.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s Snapshot
	s.Transfers = len(l.Records)
	for _, r := range l.Records {
		if r.Direction == HomeToRemote {
			s.BytesHomeToRemote += r.Bytes
		} else {
			s.BytesRemoteToHome += r.Bytes
		}
		s.Retries += r.Retries
		s.Seconds += r.Seconds
		if l.WindowSeconds > 0 && r.Seconds > l.WindowSeconds {
			s.WindowViolations++
		}
	}
	return s
}

// metricLabel renders a direction as a Prometheus-safe label value.
func metricLabel(d Direction) string {
	if d == HomeToRemote {
		return "home_to_remote"
	}
	return "remote_to_home"
}

// RegisterMetrics exposes the ledger on a registry: per-direction byte
// totals, transfer/retry counts, total modeled seconds and window
// violations. Callbacks read a fresh Snapshot at exposition time, so the
// series always reflect the live ledger.
func RegisterMetrics(reg *obs.Registry, l *Ledger) {
	reg.Help("epi_transfer_bytes_total", "bytes moved between sites by direction")
	reg.CounterFunc(`epi_transfer_bytes_total{direction="home_to_remote"}`,
		func() float64 { return float64(l.Snapshot().BytesHomeToRemote) })
	reg.CounterFunc(`epi_transfer_bytes_total{direction="remote_to_home"}`,
		func() float64 { return float64(l.Snapshot().BytesRemoteToHome) })
	reg.Help("epi_transfer_count_total", "completed transfers")
	reg.CounterFunc("epi_transfer_count_total",
		func() float64 { return float64(l.Snapshot().Transfers) })
	reg.Help("epi_transfer_retries_total", "stalled transfer attempts before success")
	reg.CounterFunc("epi_transfer_retries_total",
		func() float64 { return float64(l.Snapshot().Retries) })
	reg.Help("epi_transfer_seconds_total", "total modeled transfer wall time")
	reg.CounterFunc("epi_transfer_seconds_total",
		func() float64 { return l.Snapshot().Seconds })
	reg.Help("epi_transfer_window_violations", "transfers exceeding the nightly window")
	reg.GaugeFunc("epi_transfer_window_violations",
		func() float64 { return float64(l.Snapshot().WindowViolations) })
}
