package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies timestamps to tracers and journals. Production uses
// time.Now; determinism tests inject FixedClock so journal output is
// byte-stable. Instrumented code never reads the clock directly — only the
// tracer does — so the simulated pipeline's RNG streams and results are
// unaffected by whether tracing is on.
type Clock func() time.Time

// FixedClock returns a deterministic clock: the first call yields start and
// every further call advances by step. Safe for concurrent use (the
// sequence is globally ordered, not per-goroutine).
func FixedClock(start time.Time, step time.Duration) Clock {
	var mu sync.Mutex
	next := start
	return func() time.Time {
		mu.Lock()
		t := next
		next = next.Add(step)
		mu.Unlock()
		return t
	}
}

// Attr is one key/value annotation on a span or event. It is a tagged
// union rather than a boxed any so that building attributes on the traced
// hot path never allocates; Value boxes lazily at read/export time.
type Attr struct {
	Key  string
	kind uint8
	s    string
	i    int64
	f    float64
}

const (
	attrString uint8 = iota
	attrInt
	attrFloat
	attrBool
)

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: attrString, s: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, i: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	var i int64
	if v {
		i = 1
	}
	return Attr{Key: k, kind: attrBool, i: i}
}

// Value returns the attribute's value boxed as any.
func (a Attr) Value() any {
	switch a.kind {
	case attrString:
		return a.s
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	default:
		return a.i != 0
	}
}

// Sink consumes journal entries (span closes and point events). Journal and
// Collector implement it.
type Sink interface {
	Emit(e Entry)
}

// Tracer mints hierarchical spans and forwards their close events (and any
// point events) to a sink. Its root span 0 is born ended, so it never
// emits a close entry: it is the parent of top-level spans and the owner of
// out-of-span events, so a context carries one tracing value, the current
// span. StartSpan on a context with no span
// returns a nil span whose methods are no-ops, which is what makes
// instrumentation free on un-traced paths.
type Tracer struct {
	sink  Sink
	clock Clock
	reg   *Registry
	ids   atomic.Uint64
	root  Span
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithClock injects a timestamp source (default time.Now).
func WithClock(c Clock) TracerOption { return func(t *Tracer) { t.clock = c } }

// WithSpanMetrics observes every span's duration into the registry
// histogram epi_span_seconds{span="<name>"} so phase timings surface on
// /metrics alongside the journal.
func WithSpanMetrics(r *Registry) TracerOption { return func(t *Tracer) { t.reg = r } }

// NewTracer builds a tracer over a sink. A nil sink is allowed when only
// span metrics are wanted.
func NewTracer(sink Sink, opts ...TracerOption) *Tracer {
	t := &Tracer{sink: sink, clock: time.Now}
	for _, o := range opts {
		o(t)
	}
	if t.clock == nil {
		t.clock = time.Now
	}
	t.root.tracer, t.root.ended = t, true
	return t
}

// Span is one timed, named unit of pipeline work. Spans nest: children
// carry their parent's ID, so the journal reconstructs the tree.
type Span struct {
	tracer *Tracer
	name   string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// spanKey keys the current span in a context.
type spanKey struct{}

// WithTracer attaches a tracer to the context; all StartSpan/Event calls
// below this point in the call tree report to it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return WithSpan(ctx, &t.root)
}

// WithSpan returns ctx with s as its current span, and ctx itself when s is
// nil. It carries no cancellation or deadline from wherever s came from:
// the serving tier uses it to let a job that outlives its submitting HTTP
// request keep reporting spans into that request's trace.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span under the context's current span and returns the
// child context carrying it. Without a span it returns ctx unchanged and a
// nil span — every Span method is nil-safe, so callers never branch.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	p := SpanFrom(ctx)
	if p == nil {
		return ctx, nil
	}
	s := p.child(name, attrs)
	return WithSpan(ctx, s), s
}

// child opens a span under p: the one path by which every span, a
// request's root included, is minted.
func (p *Span) child(name string, attrs []Attr) *Span {
	t := p.tracer
	return &Span{
		tracer: t,
		name:   name,
		id:     t.ids.Add(1),
		parent: p.id,
		start:  t.clock(),
		attrs:  attrs,
	}
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's ID (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr appends attributes to the span (visible on its close entry).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event emits a point event inside the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.emitEvent(s.id, name, attrs)
}

// End closes the span with final appended to its attributes, emitting its
// close entry to the sink and (when configured) observing its duration
// into the span-seconds histogram. Multiple End calls are safe; only the
// first counts.
func (s *Span) End(final ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := append(s.attrs, final...)
	s.mu.Unlock()

	end := s.tracer.clock()
	dur := end.Sub(s.start).Seconds()
	if s.tracer.sink != nil {
		s.tracer.sink.Emit(Entry{
			Type:    EntrySpan,
			Name:    s.name,
			Span:    s.id,
			Parent:  s.parent,
			StartNS: s.start.UnixNano(),
			EndNS:   end.UnixNano(),
			Seconds: dur,
			Attrs:   attrList(attrs),
		})
	}
	if s.tracer.reg != nil {
		s.tracer.reg.Histogram(`epi_span_seconds{span="`+s.name+`"}`, nil).Observe(dur)
	}
}

// Event emits a structured point event bound to the context's current span
// (span 0 when only a tracer is attached). Without a tracer it is a no-op.
// This is how the pipeline books discrete happenings — task
// placed/retried/shed, fault injected, R-hat gate result — into the run
// journal.
func Event(ctx context.Context, name string, attrs ...Attr) {
	SpanFrom(ctx).Event(name, attrs...)
}

// emitEvent forwards one point event to the sink.
func (t *Tracer) emitEvent(span uint64, name string, attrs []Attr) {
	if t.sink == nil {
		return
	}
	t.sink.Emit(Entry{
		Type:  EntryEvent,
		Name:  name,
		Span:  span,
		AtNS:  t.clock().UnixNano(),
		Attrs: attrList(attrs),
	})
}

// attrList trims the hot-path attr slice for an Entry: nil for empty so
// JSON omitempty fires, otherwise the slice as-is (no copy, no map).
func attrList(attrs []Attr) AttrList {
	if len(attrs) == 0 {
		return nil
	}
	return AttrList(attrs)
}
