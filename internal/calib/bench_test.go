package calib

import (
	"context"
	"testing"

	"repro/internal/stats"
)

// benchCalibrator builds a Fig 15-sized problem: a 100-cell LHS design over
// a 70-day horizon, the configuration the production calibration workflow
// runs at (EXPERIMENTS.md).
func benchCalibrator(b *testing.B) *Calibrator {
	b.Helper()
	d := buildDesign(b, 42, 100, 70)
	obs := simCurve([]float64{0.3, 2500}, 70)
	r := stats.NewRNG(43)
	for i := range obs {
		obs[i] += r.Norm() * 20
	}
	c, err := Fit(d, obs, Config{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkLogLikDense measures one likelihood evaluation on the
// pre-Woodbury reference path: build the dense T×T covariance and
// Cholesky-factor it.
func BenchmarkLogLikDense(b *testing.B) {
	c := benchCalibrator(b)
	s := c.newScratch()
	theta := []float64{0.4, 0.6}
	sd := stats.StdDev(c.Obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.denseLik(theta, 0.3*sd, 0.1*sd, s)
	}
}

// BenchmarkLogLikWoodbury measures the same evaluation on the Woodbury
// fast path: O(T·pδ²) with a pδ×pδ Cholesky.
func BenchmarkLogLikWoodbury(b *testing.B) {
	c := benchCalibrator(b)
	s := c.newScratch()
	theta := []float64{0.4, 0.6}
	sd := stats.StdDev(c.Obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.logLik(theta, 0.3*sd, 0.1*sd, s)
	}
}

var sink float64

// benchSample runs SampleCtx end to end at the production draw budget: 1200
// total MCMC steps (half burn-in), 100 posterior draws. Multi-chain
// configurations split the same budget across chains, the standard way a
// fixed budget buys R̂/ESS diagnostics.
func benchSample(b *testing.B, cfg Config, steps int, dense bool) {
	c := benchCalibrator(b)
	if dense {
		c.lik = c.denseLik
	}
	cfg.Steps, cfg.BurnIn, cfg.Seed = steps, steps/2, 9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post, err := c.SampleCtx(context.Background(), cfg, 100)
		if err != nil {
			b.Fatal(err)
		}
		sink = post.AcceptRate
	}
}

// BenchmarkSampleSerialDense is the stack as it stood before this change:
// one 1200-step chain on the dense-Cholesky likelihood.
func BenchmarkSampleSerialDense(b *testing.B) {
	benchSample(b, Config{Chains: 1, Parallelism: 1}, 1200, true)
}

// BenchmarkSampleSerialWoodbury isolates the likelihood change: the same
// single 1200-step chain, Woodbury likelihood.
func BenchmarkSampleSerialWoodbury(b *testing.B) {
	benchSample(b, Config{Chains: 1, Parallelism: 1}, 1200, false)
}

// BenchmarkSampleMultiWoodbury is the new default shape at the same total
// budget: four over-dispersed 300-step chains run concurrently on the
// Woodbury likelihood, pooled after burn-in.
func BenchmarkSampleMultiWoodbury(b *testing.B) {
	benchSample(b, Config{}, 300, false)
}
