// Package transfer models the data movement between the home cluster and
// the remote super-computing cluster (the production workflow uses Globus):
// a bandwidth/latency link plus the byte accounting that Tables I and II
// report — 2 TB of one-time network staging, 100 MB–8.7 GB of daily
// configurations outbound, and 120 MB–70 GB of summaries inbound, while the
// 20 GB–3.5 TB of raw output stays on the remote filesystem.
package transfer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Byte-size constants.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
	TB int64 = 1 << 40
)

// Link is a point-to-point transfer channel.
type Link struct {
	Name string
	// BandwidthBytesPerSec is the sustained throughput.
	BandwidthBytesPerSec float64
	// LatencySec is the per-transfer startup overhead (checksums,
	// handshakes — Globus transfers are batched, so this is per batch).
	LatencySec float64
}

// DefaultLink models the Internet2 path between the two sites at a
// sustained 2 Gb/s with 30 s of per-batch overhead.
func DefaultLink() Link {
	return Link{Name: "home↔remote (Globus)", BandwidthBytesPerSec: 250e6, LatencySec: 30}
}

// Duration returns the modeled wall time to move n bytes. Zero, negative or
// non-finite bandwidth and negative or non-finite latency are rejected so
// that Inf/NaN durations can never leak into downstream accounting (night
// reports sum these values).
func (l Link) Duration(n int64) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("transfer: negative size %d", n)
	}
	if !(l.BandwidthBytesPerSec > 0) || math.IsInf(l.BandwidthBytesPerSec, 0) {
		return 0, fmt.Errorf("transfer: bandwidth %v must be positive and finite", l.BandwidthBytesPerSec)
	}
	if !(l.LatencySec >= 0) || math.IsInf(l.LatencySec, 0) {
		return 0, fmt.Errorf("transfer: latency %v must be non-negative and finite", l.LatencySec)
	}
	return l.LatencySec + float64(n)/l.BandwidthBytesPerSec, nil
}

// Direction of a transfer relative to the home cluster.
type Direction int

// Transfer directions.
const (
	HomeToRemote Direction = iota
	RemoteToHome
)

func (d Direction) String() string {
	if d == HomeToRemote {
		return "home→remote"
	}
	return "remote→home"
}

// Record is one completed transfer.
type Record struct {
	Day       int
	Direction Direction
	Label     string
	Bytes     int64
	Seconds   float64
	// Retries counts stalled attempts before the transfer went through.
	Retries int
}

// Ledger accumulates transfer records and answers the Table I / Table II
// accounting questions. It is safe for concurrent use: multiple workflows
// sharing one Pipeline (the scenario service's worker pool) move bytes
// through the same ledger.
type Ledger struct {
	Link Link
	// WindowSeconds, when positive, is the nightly transfer window; any
	// single transfer whose elapsed seconds exceed it counts as a window
	// violation in Snapshot. core.NewPipeline sets it from the night window.
	WindowSeconds float64

	mu      sync.Mutex
	Records []Record
}

// NewLedger builds a ledger over a link.
func NewLedger(link Link) *Ledger { return &Ledger{Link: link} }

// Move records a transfer that never stalls and returns its modeled
// duration: MoveWithRetry with a nil stall.
func (l *Ledger) Move(ctx context.Context, day int, dir Direction, label string, bytes int64) (float64, error) {
	d, _, err := l.MoveWithRetry(ctx, day, dir, label, bytes, RetryPolicy{}, nil)
	return d, err
}

// RetryPolicy bounds transfer retries with exponential backoff. Zero fields
// take the defaults of DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (≥ 1).
	MaxAttempts int
	// BaseBackoff is the wait in seconds before the second attempt.
	BaseBackoff float64
	// Factor multiplies the backoff after every stalled attempt.
	Factor float64
}

// DefaultRetryPolicy mirrors the production Globus retry configuration:
// five attempts, one minute base backoff, doubling.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseBackoff: 60, Factor: 2}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.Factor < 1 {
		p.Factor = d.Factor
	}
	return p
}

// Backoff returns the wait after stalled attempt `attempt` (0-based),
// spread by a jitter fraction u ∈ [0, 1): base·factor^attempt·(1 + u).
func (p RetryPolicy) Backoff(attempt int, u float64) float64 {
	p = p.withDefaults()
	b := p.BaseBackoff
	for i := 0; i < attempt; i++ {
		b *= p.Factor
	}
	return b * (1 + u)
}

// MoveWithRetry records a transfer whose attempts may stall, inside a
// "transfer" span carrying the label, direction, byte count, retry count and
// modeled seconds. stall(attempt) reports whether 0-based attempt `attempt`
// stalls and supplies the jitter u ∈ [0, 1) for that attempt's backoff; a
// nil stall never stalls. Each stalled attempt books a transfer.retried
// event and costs the link's per-batch latency plus the jittered backoff
// before the next try. On success the ledger gains one record carrying the
// total elapsed seconds and the retry count; when every attempt stalls the
// transfer fails, nothing is recorded, and the retry count is returned with
// the error.
func (l *Ledger) MoveWithRetry(ctx context.Context, day int, dir Direction, label string, bytes int64, pol RetryPolicy, stall func(attempt int) (stalled bool, jitter float64)) (float64, int, error) {
	ctx, sp := obs.StartSpan(ctx, "transfer",
		obs.String("label", label),
		obs.String("direction", metricLabel(dir)),
		obs.Int("bytes", bytes))
	defer sp.End()
	pol = pol.withDefaults()
	d, err := l.Link.Duration(bytes)
	elapsed, attempt := 0.0, 0
	for ; err == nil && attempt < pol.MaxAttempts; attempt++ {
		stalled, jitter := false, 0.0
		if stall != nil {
			stalled, jitter = stall(attempt)
		}
		if !stalled {
			break
		}
		obs.Event(ctx, "transfer.retried",
			obs.String("label", label),
			obs.Int("attempt", int64(attempt)))
		elapsed += l.Link.LatencySec + pol.Backoff(attempt, jitter)
	}
	switch {
	case err != nil:
	case attempt == pol.MaxAttempts:
		err = fmt.Errorf("transfer: %s stalled on all %d attempts", label, pol.MaxAttempts)
	default:
		elapsed += d
		l.mu.Lock()
		l.Records = append(l.Records, Record{
			Day: day, Direction: dir, Label: label, Bytes: bytes,
			Seconds: elapsed, Retries: attempt,
		})
		l.mu.Unlock()
	}
	sp.SetAttr(obs.Int("retries", int64(attempt)), obs.Float("model_seconds", elapsed))
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return elapsed, attempt, err
	}
	obs.Event(ctx, "transfer.bytes",
		obs.String("label", label),
		obs.String("direction", metricLabel(dir)),
		obs.Int("bytes", bytes))
	return elapsed, attempt, nil
}

// TotalBytes sums transferred bytes, optionally filtered by direction.
func (l *Ledger) TotalBytes(dir Direction) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, r := range l.Records {
		if r.Direction == dir {
			total += r.Bytes
		}
	}
	return total
}

// TotalSeconds sums modeled transfer time.
func (l *Ledger) TotalSeconds() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, r := range l.Records {
		total += r.Seconds
	}
	return total
}

// ByLabel returns total bytes per label, sorted by label for stable output.
func (l *Ledger) ByLabel() []LabelBytes {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]int64{}
	for _, r := range l.Records {
		m[r.Label] += r.Bytes
	}
	out := make([]LabelBytes, 0, len(m))
	for k, v := range m {
		out = append(out, LabelBytes{Label: k, Bytes: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// LabelBytes pairs a label with a byte total.
type LabelBytes struct {
	Label string
	Bytes int64
}

// HumanBytes formats a byte count the way the paper's tables do.
func HumanBytes(n int64) string {
	switch {
	case n >= TB:
		return fmt.Sprintf("%.1fTB", float64(n)/float64(TB))
	case n >= GB:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
