package epihiper

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// Tracing must be a pure observer of the replicate fan-out: the same
// ensemble run with and without a tracer produces identical results, and
// the span stream carries one child per replicate under the fan-out span.
func TestTracedReplicatesBitIdentical(t *testing.T) {
	net := testNetwork(t, 13)
	cfg := baseConfig(net, 61)
	cfg.Days = 40

	plain, err := runReplicates(context.Background(), cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}

	col := obs.NewCollector(nil)
	tr := obs.NewTracer(col, obs.WithClock(obs.FixedClock(time.Unix(0, 0), time.Millisecond)))
	ctx := obs.WithTracer(context.Background(), tr)
	traced, err := runReplicates(ctx, cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain) != len(traced) {
		t.Fatalf("%d traced results vs %d plain", len(traced), len(plain))
	}
	for rep := range plain {
		if resultDigest(plain[rep]) != resultDigest(traced[rep]) {
			t.Fatalf("replicate %d diverges under tracing: %d vs %d infections",
				rep, plain[rep].TotalInfections, traced[rep].TotalInfections)
		}
	}

	entries := col.Entries()
	var fanout obs.Entry
	children := 0
	for _, e := range entries {
		if e.Type != obs.EntrySpan {
			continue
		}
		switch e.Name {
		case "epihiper.replicates":
			fanout = e
		case "epihiper.replicate":
			children++
		}
	}
	if fanout.Span == 0 {
		t.Fatal("no epihiper.replicates span")
	}
	if children != 6 {
		t.Fatalf("%d replicate spans, want 6", children)
	}
	for _, e := range entries {
		if e.Type == obs.EntrySpan && e.Name == "epihiper.replicate" && e.Parent != fanout.Span {
			t.Fatalf("replicate span parent %d, want fan-out %d", e.Parent, fanout.Span)
		}
	}
}
