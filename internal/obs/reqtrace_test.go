package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// traceSeq staggers fixedTrace start times so recorder listings have a
// deterministic newest-first order.
var traceSeq atomic.Int64

func fixedTrace(id string, tee Sink) *RequestTrace {
	base := time.Unix(1700000000, 0).Add(time.Duration(traceSeq.Add(1)) * time.Second)
	return NewRequestTrace(id, FixedClock(base, time.Millisecond), tee)
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestRequestTraceSnapshotTree(t *testing.T) {
	rt := fixedTrace("req1", nil)
	ctx := rt.Attach(context.Background())

	qctx, qs := StartSpan(ctx, "queue.wait", String("priority", "normal"))
	Event(qctx, "replica.dispatch", Int("replica", 1))
	qs.End()
	rctx, rs := StartSpan(ctx, "job.run")
	_, es := StartSpan(rctx, "engine.tick")
	es.End()
	rs.End()
	rt.SetRequest("prediction", "normal")
	rt.Finish(200, "")

	v := rt.Snapshot()
	if !v.Done || v.Status != 200 {
		t.Fatalf("done=%v status=%d", v.Done, v.Status)
	}
	if v.ID != "req1" || v.Workflow != "prediction" || v.Priority != "normal" {
		t.Fatalf("summary mismatch: %+v", v.TraceSummary)
	}
	if v.Root == nil || v.Root.Name != "request" {
		t.Fatalf("missing root span: %+v", v.Root)
	}
	if len(v.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (queue.wait, job.run)", len(v.Root.Children))
	}
	if v.Root.Children[0].Name != "queue.wait" || v.Root.Children[1].Name != "job.run" {
		t.Fatalf("children order: %s, %s", v.Root.Children[0].Name, v.Root.Children[1].Name)
	}
	if len(v.Root.Children[0].Events) != 1 || v.Root.Children[0].Events[0].Name != "replica.dispatch" {
		t.Fatalf("queue.wait events: %+v", v.Root.Children[0].Events)
	}
	run := v.Root.Children[1]
	if len(run.Children) != 1 || run.Children[0].Name != "engine.tick" {
		t.Fatalf("job.run children: %+v", run.Children)
	}
	if st, ok := v.Root.Attrs["status"]; !ok || st != int64(200) {
		t.Fatalf("root status attr: %v", v.Root.Attrs)
	}
}

func TestRequestTraceLazySnapshot(t *testing.T) {
	// The 202-async shape: the HTTP exchange finishes, the job keeps
	// reporting spans, and a later Snapshot sees them.
	rt := fixedTrace("async", nil)
	ctx := rt.Attach(context.Background())
	rt.Finish(202, "")
	before := rt.Snapshot()
	if len(before.Root.Children) != 0 {
		t.Fatalf("unexpected children before async work: %d", len(before.Root.Children))
	}
	_, s := StartSpan(ctx, "job.run")
	s.End()
	after := rt.Snapshot()
	if len(after.Root.Children) != 1 || after.Root.Children[0].Name != "job.run" {
		t.Fatalf("async span missing from later snapshot: %+v", after.Root.Children)
	}
}

func TestRequestTraceEscalationFlag(t *testing.T) {
	rt := fixedTrace("esc", nil)
	ctx := rt.Attach(context.Background())
	if rt.Summary().Escalated {
		t.Fatal("escalated before any event")
	}
	Event(ctx, "fidelity.route", String("tier", "emulator"))
	if rt.Summary().Escalated {
		t.Fatal("emulator route must not flag escalation")
	}
	Event(ctx, "fidelity.route", String("tier", "abm"))
	if !rt.Summary().Escalated {
		t.Fatal("abm route must flag escalation")
	}
}

func TestRequestTraceTeeStampsReq(t *testing.T) {
	col := NewCollector(nil)
	rt := fixedTrace("teed", col)
	ctx := rt.Attach(context.Background())
	_, s := StartSpan(ctx, "work")
	s.End()
	rt.Finish(200, "")
	es := col.Entries()
	if len(es) == 0 {
		t.Fatal("tee saw no entries")
	}
	for _, e := range es {
		if e.Req != "teed" {
			t.Fatalf("entry %q missing req stamp: %+v", e.Name, e)
		}
	}
}

func TestWithSpanCarriesIdentityNotCancellation(t *testing.T) {
	rt := fixedTrace("adopt", nil)
	src, cancel := context.WithCancel(rt.Attach(context.Background()))
	dst := WithSpan(context.Background(), SpanFrom(src))
	cancel()
	if dst.Err() != nil {
		t.Fatal("WithSpan leaked cancellation")
	}
	if SpanFrom(dst) == nil || RequestTraceFrom(dst) != rt {
		t.Fatal("WithSpan dropped tracing identity")
	}
	_, s := StartSpan(dst, "after.cancel")
	s.End()
	if v := rt.Snapshot(); len(v.Root.Children) != 1 {
		t.Fatalf("span on the moved span's ctx not recorded: %+v", v.Root.Children)
	}
	// Untraced source: dst unchanged.
	bg := context.Background()
	if got := WithSpan(bg, SpanFrom(bg)); got != bg {
		t.Fatal("WithSpan of no span changed the context")
	}
}

// requireEventsShown holds a trace view to its summary: every event the
// summary counts appears somewhere in the tree, on the root, a descendant or
// an orphan.
func requireEventsShown(t *testing.T, v TraceView) {
	t.Helper()
	var shown func(*SpanNode) int
	shown = func(n *SpanNode) int {
		c := len(n.Events)
		for _, ch := range n.Children {
			c += shown(ch)
		}
		return c
	}
	got := shown(v.Root)
	for _, o := range v.Orphans {
		got += shown(o)
	}
	if got != v.Events {
		t.Fatalf("summary counts %d events, the tree shows %d", v.Events, got)
	}
}

// TestRequestTraceGolden pins the /debug/requests/{id} payload and the
// request journal of one FixedClock request: a read while the job still
// runs, then the finished trace, then the teed journal lines. It covers
// nested children, events on closed and still-open spans, an orphan whose
// parent never closes (an event on that parent shows on the root),
// escalation, annotations and an errored outcome.
// Built the way writeJSON serves it (two-space indent, trailing newline).
func TestRequestTraceGolden(t *testing.T) {
	var journal bytes.Buffer
	rt := NewRequestTrace("golden-1", FixedClock(time.Unix(1700000000, 0), time.Millisecond), NewJournal(&journal))
	ctx := rt.Attach(context.Background())
	rt.SetRequest("prediction", "interactive")
	rt.Annotate("hash", "c0ffee")
	Event(ctx, "admission.accept", String("class", "interactive"))
	qctx, qs := StartSpan(ctx, "queue.wait", String("priority", "interactive"))
	Event(qctx, "replica.dispatch", Int("replica", 1))
	qs.SetAttr(String("outcome", "run"))
	qs.End()
	rctx, rs := StartSpan(ctx, "job.run", String("hash", "c0ffee"))
	sctx, _ := StartSpan(rctx, "stage") // never closes
	_, part := StartSpan(sctx, "stage.part", Int("cell", 3))
	part.End()
	Event(sctx, "stage.progress", Float("frac", 0.5))
	ectx, es := StartSpan(rctx, "engine.run")
	Event(ectx, "fidelity.route", String("tier", "abm"), Float("uncertainty", 0.25))
	view := func() string {
		b, err := json.MarshalIndent(rt.Snapshot(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	async := view()
	es.End()
	rs.SetAttr(Bool("cached", false))
	rs.End()
	rt.Finish(500, "boom")
	done := view()
	if got := async + done + journal.String(); got != requestTraceGolden {
		t.Fatalf("request trace payload moved:\n%s", got)
	}
	// Parsed back from the payloads: a Snapshot here would move the clock.
	for _, payload := range []string{async, done} {
		var v TraceView
		if err := json.Unmarshal([]byte(payload), &v); err != nil {
			t.Fatal(err)
		}
		requireEventsShown(t, v)
	}
}

const requestTraceGolden = `{
  "id": "golden-1",
  "workflow": "prediction",
  "priority": "interactive",
  "duration_ms": 13,
  "done": false,
  "escalated": true,
  "spans": 2,
  "events": 4,
  "annotations": {
    "hash": "c0ffee"
  },
  "start_ns": 1700000000000000000,
  "root": {
    "name": "request",
    "span": 1,
    "start_ns": 1700000000000000000,
    "duration_ms": 12,
    "events": [
      {
        "name": "admission.accept",
        "at_ns": 1700000000001000000,
        "attrs": {
          "class": "interactive"
        }
      },
      {
        "name": "stage.progress",
        "at_ns": 1700000000009000000,
        "attrs": {
          "frac": 0.5
        }
      },
      {
        "name": "fidelity.route",
        "at_ns": 1700000000011000000,
        "attrs": {
          "tier": "abm",
          "uncertainty": 0.25
        }
      }
    ],
    "children": [
      {
        "name": "queue.wait",
        "span": 2,
        "start_ns": 1700000000002000000,
        "end_ns": 1700000000004000000,
        "duration_ms": 2,
        "attrs": {
          "outcome": "run",
          "priority": "interactive"
        },
        "events": [
          {
            "name": "replica.dispatch",
            "at_ns": 1700000000003000000,
            "attrs": {
              "replica": 1
            }
          }
        ]
      }
    ]
  },
  "orphans": [
    {
      "name": "stage.part",
      "span": 5,
      "start_ns": 1700000000007000000,
      "end_ns": 1700000000008000000,
      "duration_ms": 1,
      "attrs": {
        "cell": 3
      }
    }
  ]
}
{
  "id": "golden-1",
  "workflow": "prediction",
  "priority": "interactive",
  "status": 500,
  "error": "boom",
  "duration_ms": 16,
  "done": true,
  "escalated": true,
  "spans": 5,
  "events": 4,
  "annotations": {
    "hash": "c0ffee"
  },
  "start_ns": 1700000000000000000,
  "root": {
    "name": "request",
    "span": 1,
    "start_ns": 1700000000000000000,
    "end_ns": 1700000000016000000,
    "duration_ms": 16,
    "attrs": {
      "error": "boom",
      "status": 500
    },
    "events": [
      {
        "name": "admission.accept",
        "at_ns": 1700000000001000000,
        "attrs": {
          "class": "interactive"
        }
      },
      {
        "name": "stage.progress",
        "at_ns": 1700000000009000000,
        "attrs": {
          "frac": 0.5
        }
      }
    ],
    "children": [
      {
        "name": "queue.wait",
        "span": 2,
        "start_ns": 1700000000002000000,
        "end_ns": 1700000000004000000,
        "duration_ms": 2,
        "attrs": {
          "outcome": "run",
          "priority": "interactive"
        },
        "events": [
          {
            "name": "replica.dispatch",
            "at_ns": 1700000000003000000,
            "attrs": {
              "replica": 1
            }
          }
        ]
      },
      {
        "name": "job.run",
        "span": 3,
        "start_ns": 1700000000005000000,
        "end_ns": 1700000000015000000,
        "duration_ms": 10,
        "attrs": {
          "cached": false,
          "hash": "c0ffee"
        },
        "children": [
          {
            "name": "engine.run",
            "span": 6,
            "start_ns": 1700000000010000000,
            "end_ns": 1700000000014000000,
            "duration_ms": 4,
            "events": [
              {
                "name": "fidelity.route",
                "at_ns": 1700000000011000000,
                "attrs": {
                  "tier": "abm",
                  "uncertainty": 0.25
                }
              }
            ]
          }
        ]
      }
    ]
  },
  "orphans": [
    {
      "name": "stage.part",
      "span": 5,
      "start_ns": 1700000000007000000,
      "end_ns": 1700000000008000000,
      "duration_ms": 1,
      "attrs": {
        "cell": 3
      }
    }
  ]
}
{"type":"event","name":"admission.accept","req":"golden-1","span":1,"at_ns":1700000000001000000,"attrs":{"class":"interactive"}}
{"type":"event","name":"replica.dispatch","req":"golden-1","span":2,"at_ns":1700000000003000000,"attrs":{"replica":1}}
{"type":"span","name":"queue.wait","req":"golden-1","span":2,"parent":1,"start_ns":1700000000002000000,"end_ns":1700000000004000000,"seconds":0.002,"attrs":{"outcome":"run","priority":"interactive"}}
{"type":"span","name":"stage.part","req":"golden-1","span":5,"parent":4,"start_ns":1700000000007000000,"end_ns":1700000000008000000,"seconds":0.001,"attrs":{"cell":3}}
{"type":"event","name":"stage.progress","req":"golden-1","span":4,"at_ns":1700000000009000000,"attrs":{"frac":0.5}}
{"type":"event","name":"fidelity.route","req":"golden-1","span":6,"at_ns":1700000000011000000,"attrs":{"tier":"abm","uncertainty":0.25}}
{"type":"span","name":"engine.run","req":"golden-1","span":6,"parent":3,"start_ns":1700000000010000000,"end_ns":1700000000014000000,"seconds":0.004}
{"type":"span","name":"job.run","req":"golden-1","span":3,"parent":1,"start_ns":1700000000005000000,"end_ns":1700000000015000000,"seconds":0.01,"attrs":{"cached":false,"hash":"c0ffee"}}
{"type":"span","name":"request","req":"golden-1","span":1,"start_ns":1700000000000000000,"end_ns":1700000000016000000,"seconds":0.016,"attrs":{"error":"boom","status":500}}
`

func TestRecorderEvictionAndKeep(t *testing.T) {
	r := NewRecorder(4, time.Hour)
	// An error trace recorded first: must survive main-ring churn via the
	// kept ring.
	bad := fixedTrace("bad", nil)
	bad.Finish(500, "boom")
	r.Record(bad)
	for i := 0; i < 10; i++ {
		rt := fixedTrace(fmt.Sprintf("ok%d", i), nil)
		rt.Finish(200, "")
		r.Record(rt)
	}
	if r.Get("bad") == nil {
		t.Fatal("error trace evicted despite always-keep")
	}
	if r.Get("ok0") != nil {
		t.Fatal("ok0 should have churned out of the main ring")
	}
	if r.Get("ok9") == nil {
		t.Fatal("newest trace missing")
	}
	list := r.List(0)
	if len(list) != 5 { // 4 main + 1 kept
		t.Fatalf("list length = %d, want 5", len(list))
	}
	if list[len(list)-1].ID != "bad" {
		// newest-first ordering: the old kept trace lists last
		t.Fatalf("expected bad last, got %v", list[len(list)-1].ID)
	}
}

// A client that retries with the same X-Request-Id must find its latest
// trace: once the first trace churns out of the main ring, Get and List
// both show the second.
func TestRecorderReusedIDServesLatest(t *testing.T) {
	r := NewRecorder(4, time.Hour)
	first := fixedTrace("dup", nil)
	first.Finish(200, "")
	r.Record(first)
	latest := fixedTrace("dup", nil)
	latest.Finish(200, "")
	r.Record(latest)
	if r.Get("dup") != latest {
		t.Fatal("Get returned an older trace for a reused ID")
	}
	for i := 0; i < 3; i++ {
		rt := fixedTrace(fmt.Sprintf("churn%d", i), nil)
		rt.Finish(200, "")
		r.Record(rt)
	}
	if r.Get("dup") != latest {
		t.Fatal("Get returned the evicted trace for a reused ID")
	}
	var dups int
	for _, s := range r.List(0) {
		if s.ID == "dup" {
			dups++
			if s.StartNS != latest.Summary().StartNS {
				t.Fatalf("List shows a stale trace for dup: %+v", s)
			}
		}
	}
	if dups != 1 || r.Len() != 4 {
		t.Fatalf("List shows dup %d times, Len %d; want 1 and 4", dups, r.Len())
	}
}

func TestRecorderKeepCriteria(t *testing.T) {
	r := NewRecorder(2, 10*time.Millisecond)
	slow := NewRequestTrace("slow", FixedClock(time.Unix(0, 0), 20*time.Millisecond), nil)
	slow.Finish(200, "")
	esc := fixedTrace("esc", nil)
	esc.MarkEscalated()
	esc.Finish(200, "")
	fast := fixedTrace("fast", nil)
	fast.Finish(200, "")
	r.Record(slow)
	r.Record(esc)
	r.Record(fast)
	// Churn the main ring completely.
	for i := 0; i < 4; i++ {
		rt := fixedTrace(fmt.Sprintf("x%d", i), nil)
		rt.Finish(200, "")
		r.Record(rt)
	}
	if r.Get("slow") == nil {
		t.Fatal("slow trace not kept")
	}
	if r.Get("esc") == nil {
		t.Fatal("escalated trace not kept")
	}
	if r.Get("fast") != nil {
		t.Fatal("fast 200 trace wrongly kept")
	}
}

// TestRecorderChurnRace hammers the recorder from many goroutines —
// recording, listing, and snapshotting concurrently — and is part of the
// tier-1 -race targets.
func TestRecorderChurnRace(t *testing.T) {
	r := NewRecorder(8, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt := fixedTrace(fmt.Sprintf("g%d-%d", g, i), nil)
				ctx := rt.Attach(context.Background())
				_, s := StartSpan(ctx, "work")
				s.End()
				status := 200
				if i%17 == 0 {
					status = 500
				}
				rt.Finish(status, "")
				r.Record(rt)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, s := range r.List(16) {
					if rt := r.Get(s.ID); rt != nil {
						_ = rt.Snapshot()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := r.Len(); n == 0 {
		t.Fatal("recorder empty after churn")
	}
}

func TestSLOTrackerWindowsAndBurn(t *testing.T) {
	base := time.Unix(1700000000, 0)
	now := base
	step := func(d time.Duration) { now = now.Add(d) }
	tr := NewSLOTracker(SLOConfig{
		Target:    100 * time.Millisecond,
		Objective: 0.99,
		Window:    time.Hour,
		Clock:     func() time.Time { return now },
	})
	ws := tr.Windows()
	if len(ws) != 3 || ws[0] != 5*time.Minute || ws[1] != 20*time.Minute || ws[2] != time.Hour {
		t.Fatalf("windows = %v", ws)
	}
	// 99 good + 1 bad = exactly the objective boundary: burn 1.0.
	for i := 0; i < 99; i++ {
		tr.Observe(200, 10*time.Millisecond)
	}
	tr.Observe(200, 500*time.Millisecond) // slow success counts bad
	if burn := tr.BurnRate(time.Hour); burn < 0.99 || burn > 1.01 {
		t.Fatalf("burn = %v, want ~1.0", burn)
	}
	// 4xx is excluded from the SLI entirely.
	tr.Observe(404, time.Millisecond)
	rep := tr.Report()
	if rep.TotalGood+rep.TotalBad != 100 {
		t.Fatalf("4xx leaked into SLI: good=%d bad=%d", rep.TotalGood, rep.TotalBad)
	}
	// 5xx is bad regardless of latency.
	tr.Observe(500, time.Microsecond)
	if got := tr.Report().TotalBad; got != 2 {
		t.Fatalf("bad = %d, want 2", got)
	}
	// Advance past the short window: the 5m burn decays to 0 while the 1h
	// window still remembers.
	step(6 * time.Minute)
	if burn := tr.BurnRate(5 * time.Minute); burn != 0 {
		t.Fatalf("short-window burn = %v after idle gap, want 0", burn)
	}
	if burn := tr.BurnRate(time.Hour); burn == 0 {
		t.Fatal("long-window burn forgot the bad requests")
	}
	// Advance past the long window: everything decays.
	step(2 * time.Hour)
	if burn := tr.BurnRate(time.Hour); burn != 0 {
		t.Fatalf("burn = %v after full window expiry, want 0", burn)
	}
}

func TestSLOSetSeriesAndGauges(t *testing.T) {
	reg := NewRegistry()
	now := time.Unix(1700000000, 0)
	set := NewSLOSet(SLOConfig{
		Target: 50 * time.Millisecond, Objective: 0.9, Window: time.Hour,
		Clock: func() time.Time { return now },
	}, reg)
	set.Observe("prediction", "normal", 200, 10*time.Millisecond)
	set.Observe("prediction", "normal", 500, 10*time.Millisecond)
	set.Observe("whatif", "batch", 200, 10*time.Millisecond)
	reports := set.Reports()
	agg := reports[""]
	if agg.TotalGood != 2 || agg.TotalBad != 1 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if reports["prediction|normal"].TotalBad != 1 {
		t.Fatalf("series report: %+v", reports["prediction|normal"])
	}
	if reports["whatif|batch"].TotalGood != 1 {
		t.Fatalf("series report: %+v", reports["whatif|batch"])
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`epi_slo_burn_rate{window="1h0m0s"}`,
		`epi_slo_burn_rate{window="5m0s",workflow="prediction",priority="normal"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestFileJournalCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "req.jsonl")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var in []Entry
	for i := 0; i < 10; i++ {
		in = append(in, Entry{Type: EntrySpan, Name: "request", Req: fmt.Sprintf("r%d", i), Seconds: 0.1})
		j.Emit(in[i])
	}
	// The writer is buffered: before Close the file may be empty; after
	// Close every entry must be on disk.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantJournal(t, b, in)
	// Writes after Close are dropped, and a second Close is a no-op.
	j.Emit(Entry{Type: EntryEvent, Name: "late"})
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	b, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantJournal(t, b, in)
}
