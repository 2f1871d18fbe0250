package obs

import (
	"sync"
	"time"
)

// SLOConfig declares the serving objective the tracker burns against.
type SLOConfig struct {
	// Target is the latency bound a good request must meet (the -slo-p99
	// flag). Zero disables the latency criterion — only 5xx burn budget.
	Target time.Duration
	// Objective is the fraction of requests that must be good over Window
	// (default 0.99). The error budget is 1−Objective.
	Objective float64
	// Window is the long SLO window (default 1h). Burn rates are computed
	// over [Window/12, Window/3, Window] — the standard multi-window pairs
	// (5m/15m/1h at the default) so a fast burn alerts in minutes while
	// the long window tracks sustained erosion.
	Window time.Duration
	// Clock injects timestamps (default time.Now).
	Clock Clock
}

// SLOTracker turns the request stream into rolling burn rates: each
// observation is good or bad (bad = HTTP 5xx, or a sub-500 success slower
// than Target; 4xx client errors are excluded from the SLI), bucketed into
// a time ring covering Window. burn(w) = badFraction(w) / (1−Objective):
// burn 1.0 consumes the budget exactly at the sustainable rate, 14.4 is
// the classic page-now threshold on the short window.
type SLOTracker struct {
	cfg    SLOConfig
	bucket time.Duration
	n      int

	mu      sync.Mutex
	good    []int64
	bad     []int64
	start   time.Time // time bucket[idx] began
	idx     int
	anchor  time.Time // ring epoch for bucket indexing
	totGood int64
	totBad  int64
}

// NewSLOTracker builds a tracker; zero-valued fields take defaults.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.99
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	bucket := cfg.Window / 120
	if bucket < time.Second {
		bucket = time.Second
	}
	n := int(cfg.Window/bucket) + 1
	t := &SLOTracker{
		cfg:    cfg,
		bucket: bucket,
		n:      n,
		good:   make([]int64, n),
		bad:    make([]int64, n),
	}
	now := cfg.Clock()
	t.anchor = now
	t.start = now
	return t
}

// Observe books one request outcome.
func (t *SLOTracker) Observe(status int, latency time.Duration) {
	if t == nil {
		return
	}
	bad := false
	switch {
	case status >= 500:
		bad = true
	case status >= 400:
		// Client errors don't count against the serving SLI at all.
		return
	default:
		if t.cfg.Target > 0 && latency > t.cfg.Target {
			bad = true
		}
	}
	t.mu.Lock()
	t.advanceLocked(t.cfg.Clock())
	if bad {
		t.bad[t.idx]++
		t.totBad++
	} else {
		t.good[t.idx]++
		t.totGood++
	}
	t.mu.Unlock()
}

// advanceLocked rotates the ring forward to now, zeroing skipped buckets.
func (t *SLOTracker) advanceLocked(now time.Time) {
	for now.Sub(t.start) >= t.bucket {
		t.start = t.start.Add(t.bucket)
		t.idx++
		if t.idx == t.n {
			t.idx = 0
		}
		t.good[t.idx] = 0
		t.bad[t.idx] = 0
	}
}

// windowCounts sums buckets younger than w.
func (t *SLOTracker) windowCounts(now time.Time, w time.Duration) (good, bad int64) {
	nb := int(w / t.bucket)
	if nb < 1 {
		nb = 1
	}
	if nb > t.n {
		nb = t.n
	}
	for i := 0; i < nb; i++ {
		idx := t.idx - i
		if idx < 0 {
			idx += t.n
		}
		good += t.good[idx]
		bad += t.bad[idx]
	}
	return good, bad
}

// BurnRate returns badFraction(w)/(1−Objective) — 0 when the window saw no
// traffic.
func (t *SLOTracker) BurnRate(w time.Duration) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advanceLocked(t.cfg.Clock())
	good, bad := t.windowCounts(t.start, w)
	tot := good + bad
	if tot == 0 {
		return 0
	}
	return (float64(bad) / float64(tot)) / (1 - t.cfg.Objective)
}

// SLOWindow is one window's burn reading in a report.
type SLOWindow struct {
	Window   string  `json:"window"`
	Seconds  float64 `json:"seconds"`
	Good     int64   `json:"good"`
	Bad      int64   `json:"bad"`
	BadFrac  float64 `json:"bad_fraction"`
	BurnRate float64 `json:"burn_rate"`
}

// SLOReport is the GET /slo payload for one tracker (one workflow/priority
// series or the aggregate).
type SLOReport struct {
	TargetMS       float64     `json:"target_ms,omitempty"`
	Objective      float64     `json:"objective"`
	WindowSeconds  float64     `json:"window_seconds"`
	TotalGood      int64       `json:"total_good"`
	TotalBad       int64       `json:"total_bad"`
	BudgetRemained float64     `json:"budget_remaining"`
	Windows        []SLOWindow `json:"windows"`
}

// Windows returns the tracker's three burn windows, short to long.
func (t *SLOTracker) Windows() []time.Duration {
	short := t.cfg.Window / 12
	if short < t.bucket {
		short = t.bucket
	}
	mid := t.cfg.Window / 3
	if mid < short {
		mid = short
	}
	return []time.Duration{short, mid, t.cfg.Window}
}

// Report builds the full multi-window view.
func (t *SLOTracker) Report() SLOReport {
	r := SLOReport{
		Objective:     t.cfg.Objective,
		WindowSeconds: t.cfg.Window.Seconds(),
	}
	if t.cfg.Target > 0 {
		r.TargetMS = float64(t.cfg.Target) / float64(time.Millisecond)
	}
	t.mu.Lock()
	t.advanceLocked(t.cfg.Clock())
	r.TotalGood = t.totGood
	r.TotalBad = t.totBad
	for _, w := range t.Windows() {
		good, bad := t.windowCounts(t.start, w)
		win := SLOWindow{
			Window:  w.String(),
			Seconds: w.Seconds(),
			Good:    good,
			Bad:     bad,
		}
		if tot := good + bad; tot > 0 {
			win.BadFrac = float64(bad) / float64(tot)
			win.BurnRate = win.BadFrac / (1 - t.cfg.Objective)
		}
		r.Windows = append(r.Windows, win)
	}
	// Budget remaining over the long window: 1 − burn(Window), floored at 0.
	if len(r.Windows) > 0 {
		rem := 1 - r.Windows[len(r.Windows)-1].BurnRate
		if rem < 0 {
			rem = 0
		}
		r.BudgetRemained = rem
	} else {
		r.BudgetRemained = 1
	}
	t.mu.Unlock()
	return r
}

// SLOSet keys trackers by workflow|priority, lazily created, all sharing
// one config — plus an aggregate tracker across everything. It registers
// burn-rate gauges into a Registry so /metrics carries
// epi_slo_burn_rate{window=...} per series.
type SLOSet struct {
	cfg SLOConfig
	reg *Registry

	mu   sync.Mutex
	agg  *SLOTracker
	byWP map[string]*SLOTracker
}

// NewSLOSet builds the keyed tracker set; reg may be nil (no gauges).
func NewSLOSet(cfg SLOConfig, reg *Registry) *SLOSet {
	s := &SLOSet{cfg: cfg, reg: reg, byWP: map[string]*SLOTracker{}}
	s.agg = NewSLOTracker(cfg)
	s.registerGauges(s.agg, "", "")
	return s
}

// Observe books one request into the aggregate and its series tracker.
func (s *SLOSet) Observe(workflow, priority string, status int, latency time.Duration) {
	if s == nil {
		return
	}
	s.agg.Observe(status, latency)
	s.tracker(workflow, priority).Observe(status, latency)
}

func (s *SLOSet) tracker(workflow, priority string) *SLOTracker {
	key := workflow + "|" + priority
	s.mu.Lock()
	t := s.byWP[key]
	if t == nil {
		t = NewSLOTracker(s.cfg)
		s.byWP[key] = t
		s.mu.Unlock()
		s.registerGauges(t, workflow, priority)
		return t
	}
	s.mu.Unlock()
	return t
}

// registerGauges exposes the tracker's burn rates as gauge funcs.
func (s *SLOSet) registerGauges(t *SLOTracker, workflow, priority string) {
	if s.reg == nil {
		return
	}
	for _, w := range t.Windows() {
		w := w
		name := `epi_slo_burn_rate{window="` + w.String() + `"`
		if workflow != "" || priority != "" {
			name += `,workflow="` + workflow + `",priority="` + priority + `"`
		}
		name += `}`
		s.reg.GaugeFunc(name, func() float64 { return t.BurnRate(w) })
	}
}

// Reports returns every series' report keyed "workflow|priority", plus the
// aggregate under "".
func (s *SLOSet) Reports() map[string]SLOReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := make(map[string]*SLOTracker, len(s.byWP))
	for k, t := range s.byWP {
		snap[k] = t
	}
	s.mu.Unlock()

	out := make(map[string]SLOReport, len(snap)+1)
	out[""] = s.agg.Report()
	for k, t := range snap {
		out[k] = t.Report()
	}
	return out
}
