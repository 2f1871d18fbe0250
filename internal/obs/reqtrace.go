package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reqCounter backs NewRequestID when crypto/rand fails (it practically
// never does, but a request must always get an ID).
var reqCounter atomic.Uint64

// NewRequestID mints a 16-hex-char request trace ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := reqCounter.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * (7 - i)))
		}
	}
	return hex.EncodeToString(b[:])
}

// RequestTrace collects every span close and event of one served request
// into an in-memory buffer, keyed by a request ID. It is itself a Sink: the
// serving tier mints one tracer per request with the trace as its sink, so
// span IDs are unique within the request and the span tree reassembles
// without global coordination. The request's root is an ordinary span of
// that tracer; its close entry carries the HTTP outcome. A tee sink (the
// request journal) optionally receives every entry stamped with the request
// ID.
//
// The trace outlives its HTTP exchange: async (202) submissions keep
// filling it from worker goroutines, so Snapshot builds the tree lazily at
// read time under the lock rather than freezing it at Finish.
type RequestTrace struct {
	id   string
	root *Span
	tee  Sink

	mu        sync.Mutex
	entries   []Entry
	workflow  string
	priority  string
	escalated bool
	annos     map[string]any
}

// NewRequestTrace builds a request trace with its own tracer over clock
// (nil means time.Now) and opens the root "request" span. An empty id mints
// a fresh one; a non-nil tee receives every entry stamped with the id.
func NewRequestTrace(id string, clock Clock, tee Sink) *RequestTrace {
	if id == "" {
		id = NewRequestID()
	}
	// Preallocate the entry buffer: a typical served request closes on the
	// order of a dozen spans plus events, and growing from nil would churn
	// six reallocations on every request.
	rt := &RequestTrace{id: id, tee: tee, entries: make([]Entry, 0, 32)}
	rt.root = NewTracer(rt, WithClock(clock)).root.child("request", nil)
	return rt
}

// RequestTraceFrom returns the request trace the context's spans report
// to, or nil.
func RequestTraceFrom(ctx context.Context) *RequestTrace {
	s := SpanFrom(ctx)
	if s == nil {
		return nil
	}
	rt, _ := s.tracer.sink.(*RequestTrace)
	return rt
}

// Attach returns ctx carrying the trace's root span — everything below
// sees StartSpan/Event report into this request.
func (rt *RequestTrace) Attach(ctx context.Context) context.Context {
	return WithSpan(ctx, rt.root)
}

// Emit implements Sink: buffer the entry, flag ABM escalation when the
// fidelity router's route event passes through, and tee to the journal
// stamped with the request ID.
func (rt *RequestTrace) Emit(e Entry) {
	rt.mu.Lock()
	rt.entries = append(rt.entries, e)
	if e.Type == EntryEvent && e.Name == "fidelity.route" {
		if tier, ok := e.Attrs.Get("tier"); ok && tier == "abm" {
			rt.escalated = true
		}
	}
	rt.mu.Unlock()
	if rt.tee != nil {
		e.Req = rt.id
		rt.tee.Emit(e)
	}
}

// ID returns the request trace ID.
func (rt *RequestTrace) ID() string { return rt.id }

// SetRequest records the classified workflow and priority for the recorder
// listing and RED series.
func (rt *RequestTrace) SetRequest(workflow, priority string) {
	rt.mu.Lock()
	rt.workflow = workflow
	rt.priority = priority
	rt.mu.Unlock()
}

// Annotate attaches a key/value to the trace summary (hash, batch ID, ...).
func (rt *RequestTrace) Annotate(k string, v any) {
	rt.mu.Lock()
	if rt.annos == nil {
		rt.annos = map[string]any{}
	}
	rt.annos[k] = v
	rt.mu.Unlock()
}

// MarkEscalated flags the request as escalated-to-ABM regardless of journal
// events — the serving tier calls it when the result reports tier "abm"
// (the route decision may have happened on another request's trace under
// single-flight).
func (rt *RequestTrace) MarkEscalated() {
	rt.mu.Lock()
	rt.escalated = true
	rt.mu.Unlock()
}

// Finish closes the root span with the HTTP outcome. Idempotent; only the
// first call counts.
func (rt *RequestTrace) Finish(status int, errMsg string) {
	if errMsg == "" {
		rt.root.End(Int("status", int64(status)))
		return
	}
	rt.root.End(Int("status", int64(status)), String("error", errMsg))
}

// Workflow returns the recorded workflow ("" before SetRequest).
func (rt *RequestTrace) Workflow() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.workflow
}

// Priority returns the recorded priority class.
func (rt *RequestTrace) Priority() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.priority
}

// outcomeLocked reads the HTTP status, error message and wall time in
// milliseconds off the root span's close entry. Before Finish, done is
// false, status is 0 and the wall time is the time elapsed so far. Caller
// holds rt.mu.
func (rt *RequestTrace) outcomeLocked() (status int, errMsg string, ms float64, done bool) {
	for i := len(rt.entries) - 1; i >= 0; i-- {
		e := &rt.entries[i]
		if e.Type != EntrySpan || e.Span != rt.root.id {
			continue
		}
		for _, a := range e.Attrs {
			switch a.Key {
			case "status":
				status = int(a.i)
			case "error":
				errMsg = a.s
			}
		}
		return status, errMsg, e.Seconds * 1e3, true
	}
	return 0, "", float64(rt.root.tracer.clock().Sub(rt.root.start)) / float64(time.Millisecond), false
}

// SpanNode is one span in the reassembled request tree.
type SpanNode struct {
	Name       string         `json:"name"`
	Span       uint64         `json:"span"`
	StartNS    int64          `json:"start_ns"`
	EndNS      int64          `json:"end_ns,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []EventNode    `json:"events,omitempty"`
	Children   []*SpanNode    `json:"children,omitempty"`
}

// EventNode is one point event inside a span.
type EventNode struct {
	Name  string         `json:"name"`
	AtNS  int64          `json:"at_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// TraceSummary is the recorder's listing row for one request.
type TraceSummary struct {
	ID         string         `json:"id"`
	Workflow   string         `json:"workflow,omitempty"`
	Priority   string         `json:"priority,omitempty"`
	Status     int            `json:"status,omitempty"`
	Error      string         `json:"error,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Done       bool           `json:"done"`
	Escalated  bool           `json:"escalated,omitempty"`
	Spans      int            `json:"spans"`
	Events     int            `json:"events"`
	Annos      map[string]any `json:"annotations,omitempty"`
	StartNS    int64          `json:"start_ns"`
}

// TraceView is the full /debug/requests/{id} payload: summary + span tree.
type TraceView struct {
	TraceSummary
	Root    *SpanNode   `json:"root"`
	Orphans []*SpanNode `json:"orphans,omitempty"`
}

// Summary builds the listing row under the lock.
func (rt *RequestTrace) Summary() TraceSummary {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.summaryLocked()
}

func (rt *RequestTrace) summaryLocked() TraceSummary {
	s := TraceSummary{
		ID:        rt.id,
		Workflow:  rt.workflow,
		Priority:  rt.priority,
		Escalated: rt.escalated,
		StartNS:   rt.root.start.UnixNano(),
	}
	s.Status, s.Error, s.DurationMS, s.Done = rt.outcomeLocked()
	for _, e := range rt.entries {
		switch e.Type {
		case EntrySpan:
			s.Spans++
		case EntryEvent:
			s.Events++
		}
	}
	if len(rt.annos) > 0 {
		s.Annos = make(map[string]any, len(rt.annos))
		for k, v := range rt.annos {
			s.Annos[k] = v
		}
	}
	return s
}

// Snapshot reassembles the span tree from the buffered entries. Built
// lazily at read time: an async job still running shows the spans closed
// so far, and a later read shows more. Spans whose parent has not closed
// yet (or closed out of order) surface under Orphans rather than being
// dropped. The root span appears even before Finish, with EndNS zero.
func (rt *RequestTrace) Snapshot() TraceView {
	rt.mu.Lock()
	defer rt.mu.Unlock()

	_, _, ms, _ := rt.outcomeLocked()
	rootNode := &SpanNode{
		Name:       "request",
		Span:       rt.root.id,
		StartNS:    rt.root.start.UnixNano(),
		DurationMS: ms,
	}
	nodes := map[uint64]*SpanNode{rt.root.id: rootNode}

	type pendingEvent struct {
		span uint64
		ev   EventNode
	}
	var events []pendingEvent
	for _, e := range rt.entries {
		switch e.Type {
		case EntrySpan:
			n := nodes[e.Span]
			if n == nil {
				n = &SpanNode{Span: e.Span}
				nodes[e.Span] = n
			}
			n.Name = e.Name
			n.StartNS = e.StartNS
			n.EndNS = e.EndNS
			n.DurationMS = e.Seconds * 1e3
			n.Attrs = e.Attrs.Map()
			if e.Span == rt.root.id {
				continue // the root is the tree, not a child in it
			}
			parent := nodes[e.Parent]
			if parent == nil {
				parent = &SpanNode{Span: e.Parent}
				nodes[e.Parent] = parent
			}
			parent.Children = append(parent.Children, n)
		case EntryEvent:
			events = append(events, pendingEvent{span: e.Span, ev: EventNode{Name: e.Name, AtNS: e.AtNS, Attrs: e.Attrs.Map()}})
		}
	}
	for _, pe := range events {
		n := nodes[pe.span]
		if n == nil || n.Name == "" {
			// Event fired on a span that has not closed yet (or span 0),
			// or on a placeholder — a parent that never closed, whose
			// closed children surface as orphans: surface it on the root
			// so nothing is lost.
			n = rootNode
		}
		n.Events = append(n.Events, pe.ev)
	}
	var orphans []*SpanNode
	for id, n := range nodes {
		if id == rt.root.id || n.Name != "" {
			continue
		}
		// Placeholder parent that never closed: its children are real,
		// promote them as orphans.
		orphans = append(orphans, n.Children...)
	}
	sortTree(rootNode)
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].StartNS < orphans[j].StartNS })
	for _, o := range orphans {
		sortTree(o)
	}
	return TraceView{TraceSummary: rt.summaryLocked(), Root: rootNode, Orphans: orphans}
}

// sortTree orders children and events by start time, recursively.
func sortTree(n *SpanNode) {
	sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].StartNS < n.Children[j].StartNS })
	sort.Slice(n.Events, func(i, j int) bool { return n.Events[i].AtNS < n.Events[j].AtNS })
	for _, c := range n.Children {
		sortTree(c)
	}
}
