package calib

import (
	"context"
	"testing"
	"time"

	obspkg "repro/internal/obs"
	"repro/internal/stats"
)

// Tracing must not perturb the sampler: the same fitted calibrator sampled
// with and without a tracer returns a bit-identical posterior, and the
// traced run nests the MCMC spans under the calibrate span.
func TestTracedSampleBitIdentical(t *testing.T) {
	T := 70
	d := buildDesign(t, 11, 40, T)
	truth := []float64{0.3, 2500}
	y := simCurve(truth, T)
	r := stats.NewRNG(3)
	for i := range y {
		y[i] += r.Norm() * 10
	}
	c, err := Fit(d, y, Config{NumBasis: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Steps: 400, BurnIn: 200, Seed: 9}

	plain, err := c.SampleCtx(context.Background(), cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	col := obspkg.NewCollector(nil)
	tr := obspkg.NewTracer(col, obspkg.WithClock(obspkg.FixedClock(time.Unix(0, 0), time.Millisecond)))
	ctx := obspkg.WithTracer(context.Background(), tr)
	traced, err := c.SampleCtx(ctx, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain.Thetas) != len(traced.Thetas) {
		t.Fatalf("%d traced thetas vs %d plain", len(traced.Thetas), len(plain.Thetas))
	}
	for i := range plain.Thetas {
		for j := range plain.Thetas[i] {
			if plain.Thetas[i][j] != traced.Thetas[i][j] {
				t.Fatalf("theta[%d][%d] diverges under tracing: %v vs %v",
					i, j, plain.Thetas[i][j], traced.Thetas[i][j])
			}
		}
	}

	spans := map[string][]obspkg.Entry{}
	gates := 0
	for _, e := range col.Entries() {
		switch e.Type {
		case obspkg.EntrySpan:
			spans[e.Name] = append(spans[e.Name], e)
		case obspkg.EntryEvent:
			if e.Name == "calibration.gate" {
				gates++
			}
		}
	}
	if len(spans["calibrate"]) != 1 {
		t.Fatalf("%d calibrate spans, want 1", len(spans["calibrate"]))
	}
	if len(spans["mcmc"]) != 1 {
		t.Fatalf("%d mcmc spans, want 1", len(spans["mcmc"]))
	}
	if got, want := spans["mcmc"][0].Parent, spans["calibrate"][0].Span; got != want {
		t.Fatalf("mcmc span parent %d, want calibrate %d", got, want)
	}
	if len(spans["mcmc.chain"]) == 0 {
		t.Fatal("no mcmc.chain spans")
	}
	for _, e := range spans["mcmc.chain"] {
		if e.Parent != spans["mcmc"][0].Span {
			t.Fatalf("chain span parent %d, want mcmc %d", e.Parent, spans["mcmc"][0].Span)
		}
	}
	if gates != 1 {
		t.Fatalf("%d calibration.gate events, want 1", gates)
	}
}
