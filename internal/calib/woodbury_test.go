package calib

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
)

// The Woodbury fast path must agree with the dense-Cholesky reference on
// the same Σ = D + σδ²VVᵀ to near machine precision, across random
// parameter points, hyperparameter scales, and discrepancy-kernel shapes.
func TestWoodburyMatchesDense(t *testing.T) {
	specs := []struct {
		seed   uint64
		n, T   int
		sd, sp float64 // discrepancy kernel shape
	}{
		{31, 40, 60, 15, 10},
		{32, 30, 35, 7, 5},   // more kernels per day
		{33, 25, 80, 25, 20}, // fewer, wider kernels
	}
	for _, spec := range specs {
		d := buildDesign(t, spec.seed, spec.n, spec.T)
		obs := simCurve([]float64{0.3, 2500}, spec.T)
		r := stats.NewRNG(spec.seed ^ 0xABC)
		for i := range obs {
			obs[i] += r.Norm() * 20
		}
		c, err := Fit(d, obs, Config{DiscrepancySD: spec.sd, DiscrepancySpacing: spec.sp})
		if err != nil {
			t.Fatal(err)
		}
		sFast := c.newScratch()
		sDense := c.newScratch()
		obsScale := stats.StdDev(c.Obs)
		for trial := 0; trial < 60; trial++ {
			theta := []float64{r.Float64(), r.Float64()}
			// Cover the σδ → 0 edge (Σ nearly diagonal) through large
			// discrepancy scales. σε stays in the prior-plausible range:
			// σε ≪ σδ makes cond(Σ) ≈ (σδ/σε)² and the *dense* reference
			// itself loses digits, so comparing there tests nothing.
			sdDelta := math.Pow(10, -6+6.5*r.Float64()) * obsScale
			sdEps := math.Pow(10, -1.5+2*r.Float64()) * obsScale
			fast := c.logLik(theta, sdDelta, sdEps, sFast)
			dense := c.denseLik(theta, sdDelta, sdEps, sDense)
			rel := math.Abs(fast-dense) / math.Max(1, math.Abs(dense))
			if math.IsNaN(rel) || rel > 1e-8 {
				t.Fatalf("spec %v trial %d: woodbury %v vs dense %v (rel %g) at θ=%v σδ=%g σε=%g",
					spec.seed, trial, fast, dense, rel, theta, sdDelta, sdEps)
			}
		}
	}
}

func hashPosterior(p *Posterior) uint64 {
	h := fnv.New64a()
	w := func(f float64) {
		b := math.Float64bits(f)
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, th := range p.Thetas {
		for _, v := range th {
			w(v)
		}
	}
	for i := range p.SigmaDelta {
		w(p.SigmaDelta[i])
		w(p.SigmaEps[i])
	}
	for _, v := range p.MAPTheta {
		w(v)
	}
	w(p.MAPLogPost)
	w(p.AcceptRate)
	for i := range p.RHat {
		w(p.RHat[i])
		w(p.ESS[i])
	}
	return h.Sum64()
}

func goldenSample(t *testing.T, parallelism int) *Posterior {
	t.Helper()
	d := buildDesign(t, 21, 30, 40)
	obs := simCurve([]float64{0.3, 2500}, 40)
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	post, err := c.SampleCtx(context.Background(), Config{
		Steps: 300, BurnIn: 150, Seed: 99,
		Chains: 3, Parallelism: parallelism,
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return post
}

// sampleGoldenHash pins the exact pooled posterior of the seeded
// three-chain run above. It was captured from the first implementation of
// the multi-chain sampler; any change to the RNG layout, chain seeding,
// pooling order, emulator fit, or likelihood numerics will move it — bump
// deliberately, never silently.
const sampleGoldenHash uint64 = 0x92760d4f1aa0c219

// The tentpole contract: Calibrator.SampleCtx is bit-deterministic for a
// fixed seed regardless of how many workers run the chains, and matches
// the pinned golden posterior.
func TestSampleGoldenPinAndParallelismDeterminism(t *testing.T) {
	serial := goldenSample(t, 1)
	if got := hashPosterior(serial); got != sampleGoldenHash {
		t.Errorf("posterior hash %#x want %#x (parallelism 1)", got, sampleGoldenHash)
	}
	for _, par := range []int{2, 3} {
		p := goldenSample(t, par)
		if got := hashPosterior(p); got != hashPosterior(serial) {
			t.Errorf("posterior differs at parallelism %d", par)
		}
	}
	if serial.Chains != 3 || len(serial.RHat) != 4 || len(serial.ESS) != 4 {
		t.Fatalf("diagnostics missing: chains %d, R̂ %v", serial.Chains, serial.RHat)
	}
}

// denseLik is logLik on the O(T³) dense-Cholesky reference path; assigned to
// Calibrator.lik it makes SampleCtx draw against the reference.
func (c *Calibrator) denseLik(thetaUnit []float64, sdDelta, sdEps float64, s *likScratch) float64 {
	c.Em.PredictInto(thetaUnit, s.mean, s.variance, s.buf)
	for i := range s.r {
		s.r[i] = c.Obs[i] - s.mean[i]
	}
	return c.logLikDense(sdDelta, sdEps, s)
}

// The dense and Woodbury likelihoods drive the sampler through identical
// accept/reject decisions only when they agree to rounding; the posterior
// means must therefore be statistically indistinguishable. (Bit equality
// is not guaranteed — the two paths round differently.)
func TestSampleDenseAndWoodburyAgree(t *testing.T) {
	d := buildDesign(t, 22, 40, 40)
	obs := simCurve([]float64{0.3, 2500}, 40)
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Steps: 600, BurnIn: 300, Seed: 7, Chains: 2}
	fast, err := c.SampleCtx(context.Background(), base, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.lik = c.denseLik
	slow, err := c.SampleCtx(context.Background(), base, 100)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		var mf, ms float64
		for i := range fast.Thetas {
			mf += fast.Thetas[i][k]
			ms += slow.Thetas[i][k]
		}
		mf /= float64(len(fast.Thetas))
		ms /= float64(len(slow.Thetas))
		span := c.Scaler.Hi[k] - c.Scaler.Lo[k]
		if math.Abs(mf-ms) > 0.1*span {
			t.Errorf("dim %d: woodbury posterior mean %v vs dense %v", k, mf, ms)
		}
	}
}

// A convergence gate that cannot be met must surface, with the posterior
// still available for inspection.
func TestSampleConvergenceGateSurfaces(t *testing.T) {
	d := buildDesign(t, 23, 30, 40)
	obs := simCurve([]float64{0.3, 2500}, 40)
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 chains, tiny chains, an ESS demand they cannot meet.
	post, err := c.SampleCtx(context.Background(), Config{
		Steps: 30, BurnIn: 10, Seed: 3, Chains: 4, MinESS: 1e9,
	}, 20)
	if err == nil {
		t.Fatal("impossible MinESS gate passed silently")
	}
	if post == nil {
		t.Fatal("posterior withheld on gate failure")
	}
	if post.Converged {
		t.Fatal("Converged true despite failed gate")
	}
}
