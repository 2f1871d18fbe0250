// Package calib implements the paper's Bayesian model-calibration
// framework for the agent-based simulator (Appendix E, "Agent-Based Model
// Calibration"), the role GPMSA plays in the production workflow:
//
//	y = η(θ) + δ + ε
//
// with η emulated by a basis-represented Gaussian process (package gp),
// δ a systematic discrepancy expanded over 1-d normal kernels with an sd
// of 15 days spaced 10 days apart (eq. 5), and ε observation noise. The
// posterior over θ (and the δ/ε scale hyperparameters, which carry gamma
// priors) is explored by multiple over-dispersed Metropolis chains run in
// parallel, pooled after burn-in and diagnosed with split-R̂ and ESS; the
// likelihood exploits Σ = D + σδ²VVᵀ via the Woodbury identity so each
// MCMC step costs O(T·pδ²) instead of a dense T×T Cholesky. The output is
// a set of plausible configurations that the prediction workflow then
// re-simulates.
package calib

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/gp"
	"repro/internal/lhs"
	"repro/internal/linalg"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Design couples parameter settings with the simulated outputs at those
// settings: the "cells" of a calibration workflow.
type Design struct {
	// Ranges give the natural bounds of each calibration parameter
	// (e.g. TAU ∈ [0.1, 0.3], SYMP ∈ [0.4, 0.8]).
	Ranges []lhs.Range
	// Thetas is the n × d design in natural units.
	Thetas [][]float64
	// Outputs is the n × T matrix of simulated time series (the paper
	// calibrates on logged cumulative confirmed counts).
	Outputs *linalg.Matrix
}

// NewLHSDesign draws an n-point Latin hypercube prior design (the VA case
// study uses n = 100).
func NewLHSDesign(r *stats.RNG, n int, ranges []lhs.Range) (*Design, error) {
	thetas, err := lhs.Sample(r, n, ranges)
	if err != nil {
		return nil, err
	}
	return &Design{Ranges: ranges, Thetas: thetas}, nil
}

// DiscrepancyBasis builds the T × pδ kernel matrix of eq. (5): normal
// bumps with the given sd, spaced every `spacing` days across the horizon.
// The paper uses sd = 15 and spacing = 10 (pδ = 7 for its horizon).
func DiscrepancyBasis(T int, sd, spacing float64) *linalg.Matrix {
	if spacing <= 0 {
		spacing = 10
	}
	if sd <= 0 {
		sd = 15
	}
	p := int(math.Ceil(float64(T)/spacing)) + 1
	m := linalg.NewMatrix(T, p)
	for j := 0; j < p; j++ {
		center := float64(j) * spacing
		for t := 0; t < T; t++ {
			z := (float64(t) - center) / sd
			m.Set(t, j, math.Exp(-0.5*z*z))
		}
	}
	return m
}

// Calibrator holds the fitted emulator and observation model.
type Calibrator struct {
	Design *Design
	Em     *gp.MultiGP
	Scaler *gp.Scaler
	Obs    []float64
	VBasis *linalg.Matrix // discrepancy kernels, T × pδ

	// lik, when set, replaces logLik as the likelihood SampleCtx draws
	// against; in-package tests point it at the dense reference.
	lik func(thetaUnit []float64, sdDelta, sdEps float64, s *likScratch) float64
}

// Config controls Fit and Posterior sampling.
type Config struct {
	NumBasis int // pη; the paper uses 5
	// Discrepancy kernel shape (defaults: sd 15 days, spacing 10 days).
	DiscrepancySD, DiscrepancySpacing float64

	// MCMC controls. Steps and BurnIn are per chain; Chains over-dispersed
	// chains (default 4) run concurrently, capped at Parallelism workers.
	// The pooled posterior is bit-identical for a fixed Seed at any
	// Parallelism.
	Steps, BurnIn int
	Seed          uint64
	Chains        int
	Parallelism   int

	// RHatMax, when > 0, gates convergence: SampleCtx still returns the
	// posterior (with diagnostics filled in) but pairs it with a
	// *mcmc.ConvergenceError when any coordinate's split-R̂ exceeds the
	// gate. MinESS (> 0) additionally requires that much pooled effective
	// sample size per coordinate.
	RHatMax float64
	MinESS  float64

	// Hyperparameter bounds: the discrepancy scale σδ and noise scale σε
	// are sampled alongside θ with gamma(2, 2/scale₀) priors. Defaults
	// are derived from the observation scale.
	SigmaDeltaMax, SigmaEpsMax float64
}

// Fit builds the emulator from the design and attaches the observation.
// Outputs must already be filled in (one simulated series per design row).
func Fit(d *Design, obs []float64, cfg Config) (*Calibrator, error) {
	if d.Outputs == nil || d.Outputs.Rows != len(d.Thetas) {
		return nil, fmt.Errorf("calib: design outputs missing or mismatched")
	}
	if len(obs) != d.Outputs.Cols {
		return nil, fmt.Errorf("calib: observation length %d vs output horizon %d", len(obs), d.Outputs.Cols)
	}
	lo := make([]float64, len(d.Ranges))
	hi := make([]float64, len(d.Ranges))
	for k, rg := range d.Ranges {
		lo[k], hi[k] = rg.Lo, rg.Hi
	}
	scaler, err := gp.NewScaler(lo, hi)
	if err != nil {
		return nil, err
	}
	unit := make([][]float64, len(d.Thetas))
	for i, th := range d.Thetas {
		unit[i] = scaler.ToUnit(th)
	}
	nb := cfg.NumBasis
	if nb <= 0 {
		nb = 5
	}
	em, err := gp.FitMulti(unit, d.Outputs, nb)
	if err != nil {
		return nil, fmt.Errorf("calib: emulator: %w", err)
	}
	vb := DiscrepancyBasis(d.Outputs.Cols, cfg.DiscrepancySD, cfg.DiscrepancySpacing)
	return &Calibrator{Design: d, Em: em, Scaler: scaler, Obs: obs, VBasis: vb}, nil
}

// likScratch holds one MCMC chain's likelihood working set: emulator
// prediction buffers and the small Woodbury system. Chains evaluating the
// likelihood concurrently each own a scratch, so the shared Calibrator
// stays read-only.
type likScratch struct {
	buf            *gp.MultiBuf
	mean, variance []float64      // T
	r              []float64      // T: residual y − η̂(θ)
	dinv           []float64      // T: 1/D_ii
	u, z           []float64      // p: Vᵀ D⁻¹ r and B⁻¹-solve scratch
	small, smallL  *linalg.Matrix // p × p: B = I + σδ² Vᵀ D⁻¹ V and its factor
}

func (c *Calibrator) newScratch() *likScratch {
	T := len(c.Obs)
	p := c.VBasis.Cols
	return &likScratch{
		buf:  c.Em.NewBuf(),
		mean: make([]float64, T), variance: make([]float64, T),
		r: make([]float64, T), dinv: make([]float64, T),
		u: make([]float64, p), z: make([]float64, p),
		small: linalg.NewMatrix(p, p), smallL: linalg.NewMatrix(p, p),
	}
}

// logLik evaluates the marginal log likelihood of the observation at a
// unit-cube θ with discrepancy scale sdDelta and noise scale sdEps: the
// residual r = y − η̂(θ) has covariance
//
//	Σ = diag(emulator variance) + σδ² V Vᵀ + σε² I  =  D + σδ² V Vᵀ,
//
// which marginalizes both the emulator uncertainty and the kernel-expanded
// discrepancy of eq. (5). Because D is diagonal and V is T × pδ with small
// pδ, Woodbury and the matrix-determinant lemma reduce the per-step cost
// from the O(T³) dense Cholesky to O(T·pδ²):
//
//	Σ⁻¹ = D⁻¹ − σδ² D⁻¹ V B⁻¹ Vᵀ D⁻¹,  log|Σ| = log|D| + log|B|,
//	B   = I + σδ² Vᵀ D⁻¹ V  (pδ × pδ).
//
// If the small system is ill-conditioned the dense path is the fallback.
func (c *Calibrator) logLik(thetaUnit []float64, sdDelta, sdEps float64, s *likScratch) float64 {
	c.Em.PredictInto(thetaUnit, s.mean, s.variance, s.buf)
	T := len(c.Obs)
	p := c.VBasis.Cols
	vd2 := sdDelta * sdDelta

	logDetD := 0.0
	quadD := 0.0
	for i := 0; i < T; i++ {
		d := s.variance[i] + sdEps*sdEps + 1e-9
		s.dinv[i] = 1 / d
		logDetD += math.Log(d)
		ri := c.Obs[i] - s.mean[i]
		s.r[i] = ri
		quadD += ri * ri * s.dinv[i]
	}

	// B = I + σδ² Vᵀ D⁻¹ V and u = Vᵀ D⁻¹ r, both O(T·p²).
	for j := 0; j < p; j++ {
		s.u[j] = 0
		for k := j; k < p; k++ {
			s.small.Set(j, k, 0)
		}
	}
	for i := 0; i < T; i++ {
		di := s.dinv[i]
		row := c.VBasis.Data[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			vij := row[j] * di
			s.u[j] += vij * s.r[i]
			scaled := vij * vd2
			for k := j; k < p; k++ {
				s.small.Add(j, k, scaled*row[k])
			}
		}
	}
	for j := 0; j < p; j++ {
		s.small.Add(j, j, 1)
		for k := j + 1; k < p; k++ {
			s.small.Set(k, j, s.small.At(j, k))
		}
	}

	if err := linalg.CholeskyInto(s.small, s.smallL); err != nil {
		return c.logLikDense(sdDelta, sdEps, s)
	}
	linalg.ForwardSolveInto(s.smallL, s.u, s.z)
	linalg.BackSolveTInto(s.smallL, s.z, s.z)
	quad := quadD - vd2*linalg.Dot(s.u, s.z)
	return -0.5*quad - 0.5*(logDetD+linalg.LogDetCholesky(s.smallL))
}

// logLikDense is the reference O(T³) evaluation of the same marginal
// likelihood: it materializes Σ and Cholesky-factors it. It is the fallback
// when the Woodbury small system is ill-conditioned, the verification
// oracle for the property tests, and the benchmark baseline. The caller
// must have filled s.mean/s.variance/s.r (logLik does; standalone callers
// run PredictInto first).
func (c *Calibrator) logLikDense(sdDelta, sdEps float64, s *likScratch) float64 {
	T := len(c.Obs)
	sigma := linalg.NewMatrix(T, T)
	for i := 0; i < T; i++ {
		sigma.Set(i, i, s.variance[i]+sdEps*sdEps+1e-9)
	}
	vd2 := sdDelta * sdDelta
	if vd2 > 0 {
		p := c.VBasis.Cols
		for i := 0; i < T; i++ {
			for j := i; j < T; j++ {
				sum := 0.0
				for k := 0; k < p; k++ {
					sum += c.VBasis.At(i, k) * c.VBasis.At(j, k)
				}
				sum *= vd2
				sigma.Add(i, j, sum)
				if j != i {
					sigma.Add(j, i, sum)
				}
			}
		}
	}
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		return math.Inf(-1)
	}
	alpha := linalg.SolveCholesky(l, s.r)
	return -0.5*linalg.Dot(s.r, alpha) - 0.5*linalg.LogDetCholesky(l)
}

// Posterior holds the calibration output: plausible configurations in
// natural units, the sampled hyperparameters, and the multi-chain
// convergence diagnostics.
type Posterior struct {
	Thetas     [][]float64 // natural units
	SigmaDelta []float64
	SigmaEps   []float64
	AcceptRate float64
	MAPTheta   []float64
	MAPLogPost float64

	// Chains is the number of pooled chains; RHat/ESS are the split-R̂
	// and pooled effective sample size of each sampled coordinate
	// ([θ_unit (d), σδ, σε]); Converged reports the gate outcome (against
	// Config.RHatMax/MinESS, or mcmc.DefaultRHatMax advisory otherwise).
	Chains    int
	RHat      []float64
	ESS       []float64
	Converged bool
}

// SampleCtx runs the multi-chain MCMC and returns `count` posterior
// configurations thinned from the pooled chains (the VA case study
// generates 100 posterior configurations). When a convergence gate is
// configured (Config.RHatMax or MinESS) and fails, the posterior is still
// returned — diagnostics filled in — together with the
// *mcmc.ConvergenceError describing the failure. It runs under a
// "calibrate" span, with the multi-chain run traced through
// mcmc.RunChainsCtx (per-chain spans plus the "calibration.gate" event).
// Sampling itself is untouched by tracing, so the posterior is
// bit-identical with or without a tracer on ctx.
func (c *Calibrator) SampleCtx(ctx context.Context, cfg Config, count int) (*Posterior, error) {
	ctx, sp := obs.StartSpan(ctx, "calibrate")
	defer sp.End()
	d := len(c.Design.Ranges)
	obsScale := stats.StdDev(c.Obs)
	if obsScale == 0 {
		obsScale = 1
	}
	sdDeltaMax := cfg.SigmaDeltaMax
	if sdDeltaMax <= 0 {
		sdDeltaMax = obsScale
	}
	sdEpsMax := cfg.SigmaEpsMax
	if sdEpsMax <= 0 {
		sdEpsMax = obsScale
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = 2000
	}
	burn := cfg.BurnIn
	if burn <= 0 {
		burn = steps / 2
	}

	// Parameter vector: [θ_unit (d), σδ, σε].
	lo := make([]float64, d+2)
	hi := make([]float64, d+2)
	init := make([]float64, d+2)
	for k := 0; k < d; k++ {
		lo[k], hi[k] = 0, 1
		init[k] = 0.5
	}
	lo[d], hi[d], init[d] = 1e-6, sdDeltaMax, sdDeltaMax/10
	lo[d+1], hi[d+1], init[d+1] = 1e-6, sdEpsMax, sdEpsMax/10

	// Gamma(2, rate) priors on the scales keep them away from zero and
	// from the box edge (the paper gives precisions gamma priors).
	gammaLogPrior := func(x, scale float64) float64 {
		rate := 2.0 / scale
		return math.Log(rate) + math.Log(rate*x) - rate*x // shape-2 gamma, up to constants
	}
	lik := c.logLik
	if c.lik != nil {
		lik = c.lik
	}
	// One likelihood scratch per chain: the Calibrator itself stays
	// read-only, so chains share the fitted emulator without locks.
	newTarget := func(int) mcmc.LogTarget {
		s := c.newScratch()
		return func(p []float64) float64 {
			sdDelta, sdEps := p[d], p[d+1]
			return lik(p[:d], sdDelta, sdEps, s) +
				gammaLogPrior(sdDelta, sdDeltaMax/4) + gammaLogPrior(sdEps, sdEpsMax/4)
		}
	}
	res, runErr := mcmc.RunChainsCtx(ctx, newTarget, mcmc.MultiConfig{
		Config: mcmc.Config{
			Init: init, Lo: lo, Hi: hi,
			Steps: steps, BurnIn: burn, Thin: 1,
			StepFrac: 0.06, Seed: cfg.Seed,
		},
		Chains: cfg.Chains, Parallelism: cfg.Parallelism,
		RHatMax: cfg.RHatMax, MinESS: cfg.MinESS,
	})
	if res == nil {
		return nil, runErr
	}
	var convErr *mcmc.ConvergenceError
	if runErr != nil && !errors.As(runErr, &convErr) {
		return nil, runErr
	}
	if count <= 0 {
		count = 100
	}
	post := &Posterior{
		AcceptRate: res.AcceptRate, MAPLogPost: res.BestLogP,
		Chains: len(res.Chains), RHat: res.RHat, ESS: res.ESS,
		Converged: res.Converged,
	}
	post.MAPTheta = c.Scaler.FromUnit(res.Best[:d])
	stride := len(res.Samples) / count
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(res.Samples) && len(post.Thetas) < count; i += stride {
		s := res.Samples[i]
		post.Thetas = append(post.Thetas, c.Scaler.FromUnit(s[:d]))
		post.SigmaDelta = append(post.SigmaDelta, s[d])
		post.SigmaEps = append(post.SigmaEps, s[d+1])
	}
	return post, runErr
}

// EmulatorBand returns the emulator's mean and 95% band at a natural-units
// θ — the green-curve visualization of Figure 16.
func (c *Calibrator) EmulatorBand(theta []float64) (mean, lo, hi []float64) {
	u := c.Scaler.ToUnit(theta)
	m, v := c.Em.Predict(u)
	lo = make([]float64, len(m))
	hi = make([]float64, len(m))
	for i := range m {
		sd := math.Sqrt(v[i])
		lo[i] = m[i] - 1.96*sd
		hi[i] = m[i] + 1.96*sd
	}
	return m, lo, hi
}

// PredictiveBand returns the mean and 95% band at θ including the
// discrepancy and observation-noise scales — the full observation model
// y = η(θ) + δ + ε. This is the band Figure 16's acceptance check uses.
func (c *Calibrator) PredictiveBand(theta []float64, sdDelta, sdEps float64) (mean, lo, hi []float64) {
	u := c.Scaler.ToUnit(theta)
	m, v := c.Em.Predict(u)
	lo = make([]float64, len(m))
	hi = make([]float64, len(m))
	for i := range m {
		// Pointwise discrepancy variance: σδ² Σ_k V[i,k]².
		vd := 0.0
		for k := 0; k < c.VBasis.Cols; k++ {
			b := c.VBasis.At(i, k)
			vd += b * b
		}
		sd := math.Sqrt(v[i] + sdDelta*sdDelta*vd + sdEps*sdEps)
		lo[i] = m[i] - 1.96*sd
		hi[i] = m[i] + 1.96*sd
	}
	return m, lo, hi
}

// CoverageFraction reports the fraction of observed points falling inside
// the emulator's 95% band at θ, the paper's "result is good if the ground
// truth falls between the green curves" acceptance check.
func (c *Calibrator) CoverageFraction(theta []float64) float64 {
	_, lo, hi := c.EmulatorBand(theta)
	return c.coverage(lo, hi)
}

// PredictiveCoverage is CoverageFraction under the full observation model.
func (c *Calibrator) PredictiveCoverage(theta []float64, sdDelta, sdEps float64) float64 {
	_, lo, hi := c.PredictiveBand(theta, sdDelta, sdEps)
	return c.coverage(lo, hi)
}

func (c *Calibrator) coverage(lo, hi []float64) float64 {
	in := 0
	for i, y := range c.Obs {
		if y >= lo[i] && y <= hi[i] {
			in++
		}
	}
	return float64(in) / float64(len(c.Obs))
}

// Log1p transforms a cumulative count series to log scale, the paper's
// "logged reported case counts" observable; the +1 guards zero counts.
func Log1p(series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		out[i] = math.Log1p(v)
	}
	return out
}

// Expm1 inverts Log1p.
func Expm1(series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		out[i] = math.Expm1(v)
	}
	return out
}
