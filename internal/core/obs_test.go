package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// tracedCtx builds a context carrying a deterministic tracer whose span
// stream is both collected in memory and journaled to buf.
func tracedCtx(buf *bytes.Buffer) (context.Context, *obs.Collector) {
	col := obs.NewCollector(obs.NewJournal(buf))
	tr := obs.NewTracer(col, obs.WithClock(obs.FixedClock(time.Unix(0, 0), time.Millisecond)))
	return obs.WithTracer(context.Background(), tr), col
}

// A traced faulty night must emit a span tree that mirrors the pipeline
// phases — partition and sim rounds nested under the night span, cluster
// execution under sim — plus the task/fault event stream, and each JSONL
// journal line must be exactly the encoding of the collected entry.
func TestNightSpanNestingAndJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ctx, col := tracedCtx(&buf)
	p := NewPipeline(32)
	rep, err := p.RunNightCtx(ctx, NightConfig{
		Spec: smallSpec(), Seed: 32,
		Faults: faults.Spec{Seed: 9, TaskCrashProb: 0.1, DBRefusalProb: 0.05, TransferStallProb: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}

	entries := col.Entries()
	spans := map[string][]obs.Entry{}
	events := map[string]int{}
	for _, e := range entries {
		switch e.Type {
		case obs.EntrySpan:
			spans[e.Name] = append(spans[e.Name], e)
		case obs.EntryEvent:
			events[e.Name]++
		}
	}
	for _, name := range []string{"night", "partition", "sim", "cluster.backfill", "transfer"} {
		if len(spans[name]) == 0 {
			t.Fatalf("no %q span emitted; spans: %v", name, keys(spans))
		}
	}
	if n := len(spans["night"]); n != 1 {
		t.Fatalf("%d night spans, want 1", n)
	}
	night := spans["night"][0]
	if night.Parent != 0 {
		t.Fatalf("night span has parent %d, want root", night.Parent)
	}
	if got := spans["partition"][0].Parent; got != night.Span {
		t.Fatalf("partition parent %d, want night %d", got, night.Span)
	}
	simIDs := map[uint64]bool{}
	for _, s := range spans["sim"] {
		if s.Parent != night.Span {
			t.Fatalf("sim round parent %d, want night %d", s.Parent, night.Span)
		}
		simIDs[s.Span] = true
	}
	if len(spans["sim"]) != rep.Rounds {
		t.Fatalf("%d sim spans, want one per round (%d)", len(spans["sim"]), rep.Rounds)
	}
	for _, c := range spans["cluster.backfill"] {
		if !simIDs[c.Parent] {
			t.Fatalf("cluster span parent %d is not a sim round", c.Parent)
		}
	}
	if events["task.placed"] != rep.Rounds {
		t.Fatalf("%d task.placed events, want %d", events["task.placed"], rep.Rounds)
	}
	if events["fault.injected"] != rep.Crashes+rep.DBRefusals {
		t.Fatalf("%d fault.injected events, want crashes+refusals = %d",
			events["fault.injected"], rep.Crashes+rep.DBRefusals)
	}
	if events["task.retried"] != rep.Retries {
		t.Fatalf("%d task.retried events, want %d", events["task.retried"], rep.Retries)
	}
	if events["task.shed"] != len(rep.Shed) {
		t.Fatalf("%d task.shed events, want %d", events["task.shed"], len(rep.Shed))
	}
	if events["transfer.bytes"] == 0 {
		t.Fatal("no transfer.bytes events")
	}

	// FixedClock makes every span close with a positive, finite duration.
	for name, ss := range spans {
		for _, s := range ss {
			if s.Seconds <= 0 {
				t.Fatalf("%s span has non-positive duration %v", name, s.Seconds)
			}
		}
	}

	// Each JSONL line is the bytes json.Marshal writes for the entry the
	// collector saw at the same position.
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if len(lines) != len(entries)+1 || len(lines[len(entries)]) != 0 {
		t.Fatalf("journal has %d lines, collector %d entries", len(lines)-1, len(entries))
	}
	for i, e := range entries {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(lines[i], want) {
			t.Fatalf("journal line %d:\n got %s\nwant %s", i, lines[i], want)
		}
	}
}

// The FixedClock night journal's bytes are pinned: the tracer's span IDs,
// parents, timestamps and attrs, and the journal's JSON encoding, must not
// move under a refactor of the tracing layer.
func TestNightJournalPinned(t *testing.T) {
	var buf bytes.Buffer
	ctx, _ := tracedCtx(&buf)
	if _, err := NewPipeline(32).RunNightCtx(ctx, NightConfig{
		Spec: smallSpec(), Seed: 32,
		Faults: faults.Spec{Seed: 9, TaskCrashProb: 0.1, DBRefusalProb: 0.05, TransferStallProb: 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	const wantSum, wantLen = "ef1520421ad6c702fa7c1cb6707d33026f1ee172a6100a33d670733854036fab", 14827
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != wantSum || buf.Len() != wantLen {
		t.Fatalf("night journal sha256 %s, %d bytes; want %s, %d bytes", sum, buf.Len(), wantSum, wantLen)
	}
}

func keys(m map[string][]obs.Entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Instrumentation must be a pure observer: the same faulty night run with
// and without a tracer produces byte-identical reports.
func TestTracedNightReportBitIdentical(t *testing.T) {
	cfg := NightConfig{
		Spec: smallSpec(), Seed: 33,
		Faults: faults.Spec{Seed: 5, TaskCrashProb: 0.15, DBRefusalProb: 0.05, TransferStallProb: 0.3},
	}
	marshal := func(rep *NightReport, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := marshal(NewPipeline(33).RunNightCtx(context.Background(), cfg))
	var buf bytes.Buffer
	ctx, _ := tracedCtx(&buf)
	traced := marshal(NewPipeline(33).RunNightCtx(ctx, cfg))
	if !bytes.Equal(plain, traced) {
		t.Fatalf("tracer changed the report:\nplain  %s\ntraced %s", plain, traced)
	}
}

// The pipeline-level fault counters must agree with the per-night report
// accounting, and the failure-free baseline must leave them all zero.
func TestFaultCountersMatchReport(t *testing.T) {
	p := NewPipeline(32)
	rep, err := p.RunNightCtx(context.Background(), NightConfig{
		Spec: smallSpec(), Seed: 32,
		Faults: faults.Spec{Seed: 9, TaskCrashProb: 0.1, DBRefusalProb: 0.05, TransferStallProb: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.FaultCounters.Snapshot()
	if snap.Crashes != int64(rep.Crashes) || snap.DBRefusals != int64(rep.DBRefusals) {
		t.Fatalf("counters %+v disagree with report crashes=%d refusals=%d",
			snap, rep.Crashes, rep.DBRefusals)
	}
	if snap.TransferStalls != int64(rep.TransferRetries) {
		t.Fatalf("transfer stalls %d != report retries %d", snap.TransferStalls, rep.TransferRetries)
	}
	if snap.Recovered != int64(rep.Recovered) || snap.Shed != int64(len(rep.Shed)) {
		t.Fatalf("counters %+v disagree with report recovered=%d shed=%d",
			snap, rep.Recovered, len(rep.Shed))
	}
	if rep.Retries > 0 && rep.Recovered == 0 && rep.ShedRetryExhausted == 0 {
		t.Fatal("requeues happened but nothing was recovered or shed")
	}

	clean := NewPipeline(31)
	if _, err := clean.RunNightCtx(context.Background(), NightConfig{Spec: smallSpec(), Seed: 31}); err != nil {
		t.Fatal(err)
	}
	if s := clean.FaultCounters.Snapshot(); s != (faults.CountersSnapshot{}) {
		t.Fatalf("failure-free night bumped fault counters: %+v", s)
	}
}

// The scheduling bound attached to the report must dominate the achieved
// night: makespan ≥ lower bound, utilization ≤ bound.
func TestNightReportSchedulingBound(t *testing.T) {
	p := NewPipeline(31)
	rep, err := p.RunNightCtx(context.Background(), NightConfig{Spec: smallSpec(), Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanLB <= 0 || rep.UtilizationBound <= 0 {
		t.Fatalf("bounds not computed: LB %v, utilization bound %v", rep.MakespanLB, rep.UtilizationBound)
	}
	if rep.Makespan < rep.MakespanLB {
		t.Fatalf("makespan %v beats its lower bound %v", rep.Makespan, rep.MakespanLB)
	}
	if rep.Utilization > rep.UtilizationBound+1e-9 {
		t.Fatalf("utilization %v exceeds bound %v", rep.Utilization, rep.UtilizationBound)
	}
}
