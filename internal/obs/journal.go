package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Entry types.
const (
	// EntrySpan is a span close: a named interval with duration and tree
	// position.
	EntrySpan = "span"
	// EntryEvent is a structured point event (task placed/retried/shed,
	// fault injected, transfer recorded, gate result, ...).
	EntryEvent = "event"
)

// Entry is one line of the run journal.
type Entry struct {
	Type string `json:"type"`
	Name string `json:"name"`
	// Req is the request trace ID the entry belongs to, set when a
	// request-scoped trace exports through a shared journal (span IDs are
	// only unique within one request, so the journal needs the trace ID to
	// reassemble trees).
	Req string `json:"req,omitempty"`
	// Span is the owning span ID (for EntrySpan, the span itself); zero
	// when the event fired outside any span.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// StartNS/EndNS bracket a span in unix nanoseconds; AtNS stamps an
	// event.
	StartNS int64    `json:"start_ns,omitempty"`
	EndNS   int64    `json:"end_ns,omitempty"`
	AtNS    int64    `json:"at_ns,omitempty"`
	Seconds float64  `json:"seconds,omitempty"`
	Attrs   AttrList `json:"attrs,omitempty"`
}

// AttrList is an entry's attributes kept as the flat tagged-union slice the
// instrumentation produced — a span close on the traced hot path stores its
// attrs without building a map or boxing values. It still marshals as the
// same JSON object a map would (keys sorted, later duplicates winning), so
// journal lines are byte-identical to the map representation they replace.
type AttrList []Attr

// Get returns the value for key (later duplicates win), boxed as any.
func (l AttrList) Get(key string) (any, bool) {
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].Key == key {
			return l[i].Value(), true
		}
	}
	return nil, false
}

// Map flattens the list into a key→value map for view payloads; nil when
// empty. Later keys win, matching JSON object semantics.
func (l AttrList) Map() map[string]any {
	if len(l) == 0 {
		return nil
	}
	m := make(map[string]any, len(l))
	for _, a := range l {
		m[a.Key] = a.Value()
	}
	return m
}

// MarshalJSON writes the list as a JSON object. Export runs off the hot
// path, so it simply round-trips through the map form encoding/json sorts.
func (l AttrList) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.Map())
}

// Journal writes entries as JSON Lines — one self-describing object per
// line, append-only, so a night's journal can be tailed while it runs and
// replayed afterwards. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	err    error
	closer func() error
}

// NewJournal wraps a writer. The caller owns the writer's lifecycle
// (e.g. closing the underlying file).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// OpenFileJournal creates (truncating) a JSONL journal file with a buffered
// writer. The returned journal MUST be Closed — the buffer is not flushed
// on process exit, so a drain path that skips Close loses the run's tail.
func OpenFileJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	j := NewJournal(bw)
	j.closer = func() error {
		ferr := bw.Flush()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	return j, nil
}

// Close flushes and closes the underlying writer when the journal owns one
// (OpenFileJournal); on a plain NewJournal it only reports the sticky write
// error. Close is idempotent and safe to call concurrently with Emit —
// writes after Close are dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closer != nil {
		cerr := j.closer()
		j.closer = nil
		if j.err == nil {
			j.err = errJournalClosed
		}
		if cerr != nil {
			return cerr
		}
	}
	if j.err == errJournalClosed {
		return nil
	}
	return j.err
}

// errJournalClosed is the sticky error recorded after Close so late Emits
// are dropped instead of writing to a closed file.
var errJournalClosed = fmt.Errorf("obs: journal closed")

// Emit appends one entry as a JSON line. The first write error sticks and
// suppresses further writes (journals must never take the pipeline down).
func (j *Journal) Emit(e Entry) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	j.mu.Lock()
	if j.err == nil {
		_, j.err = j.w.Write(b)
	}
	j.mu.Unlock()
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Collector is an in-memory sink, optionally teeing to a next sink — the
// way cmd/nightly both writes the JSONL file and aggregates the
// -trace-summary without re-reading it.
type Collector struct {
	next Sink
	mu   sync.Mutex
	es   []Entry
}

// NewCollector builds a collector; next may be nil.
func NewCollector(next Sink) *Collector { return &Collector{next: next} }

// Emit stores the entry and forwards it.
func (c *Collector) Emit(e Entry) {
	c.mu.Lock()
	c.es = append(c.es, e)
	c.mu.Unlock()
	if c.next != nil {
		c.next.Emit(e)
	}
}

// Entries returns a copy of everything collected so far.
func (c *Collector) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Entry(nil), c.es...)
}

// PhaseStat aggregates the spans of one name.
type PhaseStat struct {
	Name    string
	Count   int
	Seconds float64
}

// Summarize aggregates span entries by name — the per-phase wall-clock
// breakdown (partition, sim, transfer, calibrate, ...) of a run journal —
// sorted by total seconds descending (name ascending at ties).
func Summarize(entries []Entry) []PhaseStat {
	acc := map[string]*PhaseStat{}
	for _, e := range entries {
		if e.Type != EntrySpan {
			continue
		}
		s, ok := acc[e.Name]
		if !ok {
			s = &PhaseStat{Name: e.Name}
			acc[e.Name] = s
		}
		s.Count++
		s.Seconds += e.Seconds
	}
	out := make([]PhaseStat, 0, len(acc))
	for _, s := range acc {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// EventCounts tallies event entries by name, sorted by name — the journal's
// task placed/retried/shed and fault counts at a glance.
func EventCounts(entries []Entry) []PhaseStat {
	acc := map[string]int{}
	for _, e := range entries {
		if e.Type == EntryEvent {
			acc[e.Name]++
		}
	}
	out := make([]PhaseStat, 0, len(acc))
	for name, n := range acc {
		out = append(out, PhaseStat{Name: name, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
