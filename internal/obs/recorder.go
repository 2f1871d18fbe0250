package obs

import (
	"sort"
	"sync"
	"time"
)

// Recorder is the serving tier's flight recorder: a bounded ring of the
// last N request traces, plus a second always-keep ring for the requests
// worth keeping past churn — slow (duration ≥ the slow threshold), errored
// (HTTP ≥ 400), or escalated to the full ABM. Traces are stored live (by
// pointer), so an async job that finishes after its HTTP exchange keeps
// enriching the recorded trace.
//
// Lookup is by request ID over both rings, newest first: a trace evicted
// from the main ring stays reachable while the kept ring holds it, and a
// client that reuses a request ID finds its latest trace.
type Recorder struct {
	mu   sync.Mutex
	main ring
	kept ring
	slow time.Duration
}

// ring is a fixed-size buffer of traces that overwrites its oldest slot.
type ring struct {
	buf  []*RequestTrace
	next int
}

func (r *ring) push(rt *RequestTrace) {
	r.buf[r.next] = rt
	r.next = (r.next + 1) % len(r.buf)
}

// newest returns the ring's traces, newest first.
func (r *ring) newest() []*RequestTrace {
	out := make([]*RequestTrace, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		rt := r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if rt == nil {
			break
		}
		out = append(out, rt)
	}
	return out
}

// NewRecorder builds a flight recorder whose main ring holds capacity
// traces (256 when capacity ≤ 0) and whose kept ring holds a quarter of
// that, at least 16. A request at least slow long is always kept; zero
// disables the slowness criterion (errors and escalations are always kept
// regardless).
func NewRecorder(capacity int, slow time.Duration) *Recorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &Recorder{
		main: ring{buf: make([]*RequestTrace, capacity)},
		kept: ring{buf: make([]*RequestTrace, max(capacity/4, 16))},
		slow: slow,
	}
}

// Record stores a completed (or async-pending) request trace. The keep
// decision is made here, at HTTP completion time: slow, errored, or
// escalated traces also enter the always-keep ring.
func (r *Recorder) Record(rt *RequestTrace) {
	if r == nil || rt == nil {
		return
	}
	rt.mu.Lock()
	status, _, ms, _ := rt.outcomeLocked()
	keep := rt.escalated || status >= 400 ||
		r.slow > 0 && ms >= float64(r.slow)/float64(time.Millisecond)
	rt.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.main.push(rt)
	if keep {
		r.kept.push(rt)
	}
}

// tracesLocked returns every recorded trace once: the main ring's, newest
// first, then the kept ring's. Caller holds r.mu.
func (r *Recorder) tracesLocked() []*RequestTrace {
	out := r.main.newest()
	seen := make(map[*RequestTrace]bool, len(out))
	for _, rt := range out {
		seen[rt] = true
	}
	for _, rt := range r.kept.newest() {
		if !seen[rt] {
			out = append(out, rt)
		}
	}
	return out
}

// Get returns the newest trace recorded under a request ID, or nil.
func (r *Recorder) Get(id string) *RequestTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rt := range append(r.main.newest(), r.kept.newest()...) {
		if rt.id == id {
			return rt
		}
	}
	return nil
}

// List returns summaries of every recorded trace, newest first, deduped
// across the two rings. limit ≤ 0 means all.
func (r *Recorder) List(limit int) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rts := r.tracesLocked()
	r.mu.Unlock()

	// Summaries take each trace's own lock — outside the recorder lock.
	out := make([]TraceSummary, 0, len(rts))
	for _, rt := range rts {
		out = append(out, rt.Summary())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS > out[j].StartNS })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Len reports how many distinct traces are currently reachable.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tracesLocked())
}
