// Package obs is the unified observability layer of the pipeline: a
// process-wide metrics registry with Prometheus text exposition, lightweight
// hierarchical tracing propagated through the existing context plumbing, and
// a JSONL run journal. The design constraints mirror the operational story
// of the paper's nightly 10pm–8am window — operators must see task
// placement, utilization against the FFDT-DC bound, and where the night's
// wall-clock went while it runs — without perturbing the bit-reproducible
// simulation paths: no instrumentation call ever touches an RNG stream, and
// all timestamps flow through an injectable clock so golden/determinism
// tests stay bit-identical.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the histogram bucket upper bounds in seconds
// used for workflow/span latencies; the last implicit bucket is +Inf. The
// range spans sub-millisecond stub runs up to multi-minute full-scale
// workflows.
var DefaultLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600,
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric.
type Histogram struct {
	bounds []float64 // upper bounds; implicit +Inf last bucket
	mu     sync.Mutex
	counts []int64 // len(bounds)+1
	sum    float64
	n      int64
}

// Observe books one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time cumulative view of a Histogram.
type HistogramSnapshot struct {
	Count int64
	Sum   float64
	// CumCounts[i] is the cumulative count of samples ≤ Bounds[i]; the last
	// element is the total (the +Inf bucket).
	Bounds    []float64
	CumCounts []int64
}

// Snapshot returns the cumulative bucket view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.n, Sum: h.sum, Bounds: h.bounds}
	s.CumCounts = make([]int64, len(h.counts))
	var cum int64
	for i, c := range h.counts {
		cum += c
		s.CumCounts[i] = cum
	}
	return s
}

// metricKind is the Prometheus TYPE of a metric family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry is a process-wide metrics registry. Metric names follow the
// Prometheus data model and may carry a label set in braces, e.g.
// "epi_transfer_bytes_total{direction=\"home_to_remote\"}" — series with
// the same base name form one family and must share a kind. All methods are
// safe for concurrent use; constructors are get-or-create, so independent
// subsystems can reference the same series without coordination.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	funcs      map[string]func() float64
	funcKinds  map[string]metricKind
	histograms map[string]*Histogram
	kinds      map[string]metricKind // by base name
	help       map[string]string     // by base name
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		funcs:      map[string]func() float64{},
		funcKinds:  map[string]metricKind{},
		histograms: map[string]*Histogram{},
		kinds:      map[string]metricKind{},
		help:       map[string]string{},
	}
}

// baseName strips a "{...}" label suffix.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitName returns the base name and the raw label list (without braces).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// claimKind registers the base name's kind, panicking on a conflict —
// reusing one family name with two metric types is a programming error that
// would silently corrupt the exposition otherwise.
func (r *Registry) claimKind(name string, k metricKind) {
	base := baseName(name)
	if prev, ok := r.kinds[base]; ok && prev != k {
		panic(fmt.Sprintf("obs: metric family %q registered as both %s and %s", base, prev, k))
	}
	r.kinds[base] = k
}

// Help sets the HELP text for a metric family (by base name).
func (r *Registry) Help(base, text string) {
	r.mu.Lock()
	r.help[baseName(base)] = text
	r.mu.Unlock()
}

// Counter returns the counter for name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.claimKind(name, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge for name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.claimKind(name, kindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a callback evaluated at exposition time — the natural
// fit for values another subsystem already tracks (queue depth, cache size,
// ledger totals). Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimKind(name, kindGauge)
	r.funcs[name] = f
	r.funcKinds[name] = kindGauge
}

// CounterFunc registers a callback for a monotone total kept elsewhere
// (cache hit counts, ledger retry totals). Exposed with TYPE counter.
func (r *Registry) CounterFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimKind(name, kindCounter)
	r.funcs[name] = f
	r.funcKinds[name] = kindCounter
}

// Histogram returns the histogram for name, creating it with the given
// bucket bounds on first use (nil bounds take DefaultLatencyBuckets). Bounds
// are fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.claimKind(name, kindHistogram)
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
	r.histograms[name] = h
	return h
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	// Integral values (counters, byte totals) read better without the
	// scientific notation 'g' would switch to past 1e6.
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel appends a label pair to a (possibly empty) label list.
func withLabel(labels, key, val string) string {
	pair := key + `="` + val + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return "{" + labels + "," + pair + "}"
}

// series is one exposition line before sorting.
type series struct {
	name string
	line string
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by base name and
// series sorted within each family, so output is stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	families := map[string][]series{}
	add := func(name, line string) {
		base := baseName(name)
		families[base] = append(families[base], series{name: name, line: line})
	}
	for name, c := range r.counters {
		add(name, fmt.Sprintf("%s %d\n", name, c.Value()))
	}
	for name, g := range r.gauges {
		add(name, fmt.Sprintf("%s %s\n", name, formatFloat(g.Value())))
	}
	type fn struct {
		name string
		f    func() float64
	}
	var fns []fn
	for name, f := range r.funcs {
		fns = append(fns, fn{name, f})
	}
	type hist struct {
		name string
		h    *Histogram
	}
	var hists []hist
	for name, h := range r.histograms {
		hists = append(hists, hist{name, h})
	}
	kinds := make(map[string]metricKind, len(r.kinds))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	// Callbacks and histogram snapshots run outside the registry lock so a
	// gauge func may itself take locks (ledger, queue) without deadlock risk.
	for _, e := range fns {
		add(e.name, fmt.Sprintf("%s %s\n", e.name, formatFloat(e.f())))
	}
	for _, e := range hists {
		base, labels := splitName(e.name)
		s := e.h.Snapshot()
		var b strings.Builder
		for i, cum := range s.CumCounts {
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatFloat(s.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, withLabel(labels, "le", le), cum)
		}
		sumName, countName := base+"_sum", base+"_count"
		if labels != "" {
			sumName += "{" + labels + "}"
			countName += "{" + labels + "}"
		}
		fmt.Fprintf(&b, "%s %s\n", sumName, formatFloat(s.Sum))
		fmt.Fprintf(&b, "%s %d\n", countName, s.Count)
		add(e.name, b.String())
	}

	bases := make([]string, 0, len(families))
	for base := range families {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		if h, ok := help[base]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kinds[base]); err != nil {
			return err
		}
		ss := families[base]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		for _, s := range ss {
			if _, err := io.WriteString(w, s.line); err != nil {
				return err
			}
		}
	}
	return nil
}
