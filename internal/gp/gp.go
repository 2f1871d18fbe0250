// Package gp implements the Gaussian-process emulator of the paper's
// Bayesian calibration framework (Appendix E): a zero-mean GP per basis
// coefficient with the Gaussian ("squared-exponential") correlation
// function of eq. (4),
//
//	R(θ, θ′; ρ) = ∏_k ρ_k^{4 (θ_k − θ′_k)²},
//
// a marginal precision λ_w, and a nugget "so that interpolation is not
// necessarily enforced". Hyperparameters are estimated by profile maximum
// likelihood with coordinate ascent over the correlation parameters —
// the paper's full Bayesian treatment of hyperparameters reduces, for the
// purposes of reproducing Figures 15–17, to a point estimate plus the
// nugget-inflated predictive variance.
package gp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
)

// GP is a fitted single-output Gaussian process over inputs scaled to
// [0, 1]^d.
type GP struct {
	X      [][]float64 // design points, n × d, in [0,1]
	w      []float64   // observed outputs
	Rho    []float64   // per-dimension correlation parameters in (0,1)
	Lambda float64     // marginal precision
	Nugget float64
	chol   *linalg.Matrix // Cholesky of C = R + g I
	alpha  []float64      // C^{-1} w
	logRho []float64      // precomputed log ρ_k for the corr fast path
}

// corr evaluates the paper's Gaussian correlation between two points via the
// precomputed-log form: ∏_k ρ_k^{4d²} = exp(4 Σ_k d² log ρ_k) — a single
// Exp per pair instead of d Pows. The fitted ρ live in (0,1), so log ρ is
// finite and the two forms agree to rounding.
func corr(a, b, logRho []float64) float64 {
	s := 0.0
	for k := range a {
		d := a[k] - b[k]
		s += d * d * logRho[k]
	}
	return math.Exp(4 * s)
}

// logRhoOf precomputes log ρ_k once per fitted parameter vector.
func logRhoOf(rho []float64) []float64 {
	lr := make([]float64, len(rho))
	for k, r := range rho {
		lr[k] = math.Log(r)
	}
	return lr
}

// corrMatrix builds R + g·I over the design.
func corrMatrix(x [][]float64, rho []float64, nugget float64) *linalg.Matrix {
	lr := logRhoOf(rho)
	n := len(x)
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1+nugget)
		for j := i + 1; j < n; j++ {
			c := corr(x[i], x[j], lr)
			m.Set(i, j, c)
			m.Set(j, i, c)
		}
	}
	return m
}

// profileNegLML returns the negative profile log marginal likelihood (up to
// constants) for the given correlation parameters: with λ profiled out,
// n·log(wᵀC⁻¹w) + log|C|.
func profileNegLML(x [][]float64, w []float64, rho []float64, nugget float64) (float64, error) {
	c := corrMatrix(x, rho, nugget)
	l, err := linalg.Cholesky(c)
	if err != nil {
		return math.Inf(1), err
	}
	alpha := linalg.SolveCholesky(l, w)
	q := linalg.Dot(w, alpha)
	if q <= 0 {
		return math.Inf(1), fmt.Errorf("gp: non-positive quadratic form")
	}
	n := float64(len(w))
	return n*math.Log(q) + linalg.LogDetCholesky(l), nil
}

// Fit estimates a GP over the scaled design x (all coordinates in [0,1])
// and outputs w by coordinate-ascent profile maximum likelihood over the
// per-dimension correlation parameters.
func Fit(x [][]float64, w []float64) (*GP, error) {
	n := len(x)
	if n == 0 || len(w) != n {
		return nil, fmt.Errorf("gp: design size %d, outputs %d", n, len(w))
	}
	d := len(x[0])
	if d == 0 {
		return nil, fmt.Errorf("gp: zero-dimensional design")
	}
	for i, xi := range x {
		if len(xi) != d {
			return nil, fmt.Errorf("gp: ragged design at row %d", i)
		}
		for k, v := range xi {
			if v < -1e-9 || v > 1+1e-9 {
				return nil, fmt.Errorf("gp: design point %d dim %d = %g outside [0,1]", i, k, v)
			}
		}
	}

	grid := []float64{0.05, 0.2, 0.4, 0.6, 0.75, 0.85, 0.92, 0.97, 0.995}
	nuggets := []float64{1e-6, 1e-4, 1e-2}
	rho := make([]float64, d)
	for k := range rho {
		rho[k] = 0.6
	}
	bestNugget := nuggets[0]
	best, err := profileNegLML(x, w, rho, bestNugget)
	if err != nil {
		best = math.Inf(1)
	}
	// Coordinate ascent: two sweeps over dimensions, then nugget.
	for sweep := 0; sweep < 2; sweep++ {
		for k := 0; k < d; k++ {
			for _, r := range grid {
				old := rho[k]
				rho[k] = r
				v, err := profileNegLML(x, w, rho, bestNugget)
				if err == nil && v < best {
					best = v
				} else {
					rho[k] = old
				}
			}
		}
		for _, g := range nuggets {
			v, err := profileNegLML(x, w, rho, g)
			if err == nil && v < best {
				best = v
				bestNugget = g
			}
		}
	}
	if math.IsInf(best, 1) {
		// Degenerate design (e.g. duplicated points): fall back to a
		// heavy nugget.
		bestNugget = 0.1
	}
	c := corrMatrix(x, rho, bestNugget)
	l, err := linalg.Cholesky(c)
	if err != nil {
		return nil, fmt.Errorf("gp: final factorization: %w", err)
	}
	alpha := linalg.SolveCholesky(l, w)
	q := linalg.Dot(w, alpha)
	lambda := float64(n) / q
	if q <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		lambda = 1
	}
	return &GP{
		X: x, w: append([]float64(nil), w...),
		Rho: rho, Lambda: lambda, Nugget: bestNugget,
		chol: l, alpha: alpha, logRho: logRhoOf(rho),
	}, nil
}

// Predict returns the posterior mean and variance at a scaled input point.
func (g *GP) Predict(theta []float64) (mean, variance float64) {
	n := len(g.X)
	buf := NewPredictBuf(n)
	return g.PredictInto(theta, buf)
}

// PredictBuf holds the per-prediction scratch of one GP (or of a MultiGP
// whose design all GPs share). One buffer per goroutine: predictions into
// distinct buffers are safe concurrently.
type PredictBuf struct {
	r, y []float64
}

// NewPredictBuf sizes a scratch buffer for a design of n points.
func NewPredictBuf(n int) *PredictBuf {
	return &PredictBuf{
		r: make([]float64, n),
		y: make([]float64, n),
	}
}

// PredictInto is Predict reusing caller scratch, for likelihood hot loops
// that evaluate the emulator once per MCMC step.
func (g *GP) PredictInto(theta []float64, buf *PredictBuf) (mean, variance float64) {
	n := len(g.X)
	r := buf.r[:n]
	for i := 0; i < n; i++ {
		r[i] = corr(theta, g.X[i], g.logRho)
	}
	mean = linalg.Dot(r, g.alpha)
	// rᵀC⁻¹r = ‖L⁻¹r‖², so a single forward solve suffices — no
	// back-substitution.
	y := buf.y[:n]
	linalg.ForwardSolveInto(g.chol, r, y)
	variance = (1 + g.Nugget - linalg.Dot(y, y)) / g.Lambda
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// Scaler maps natural parameter ranges to the unit cube and back; GPMSA
// standardizes inputs this way before fitting.
type Scaler struct {
	Lo, Hi []float64
}

// NewScaler builds a scaler from parallel bound slices.
func NewScaler(lo, hi []float64) (*Scaler, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return nil, fmt.Errorf("gp: scaler bounds mismatch")
	}
	for k := range lo {
		if hi[k] < lo[k] {
			return nil, fmt.Errorf("gp: inverted bound in dim %d", k)
		}
	}
	return &Scaler{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}, nil
}

// ToUnit maps a natural point into [0,1]^d.
func (s *Scaler) ToUnit(theta []float64) []float64 {
	out := make([]float64, len(theta))
	for k := range theta {
		span := s.Hi[k] - s.Lo[k]
		if span == 0 {
			out[k] = 0
			continue
		}
		out[k] = (theta[k] - s.Lo[k]) / span
	}
	return out
}

// FromUnit maps a unit-cube point back to natural units.
func (s *Scaler) FromUnit(u []float64) []float64 {
	out := make([]float64, len(u))
	for k := range u {
		out[k] = s.Lo[k] + u[k]*(s.Hi[k]-s.Lo[k])
	}
	return out
}

// MultiGP emulates a multivariate (time-series) simulator output through
// the basis representation of eq. (3): η(θ) = φ₀ + Σ_k φ_k w_k(θ), with the
// φ_k eigenvector (PCA) basis functions and one GP per basis weight.
type MultiGP struct {
	Mean      []float64      // φ₀, length T
	Basis     *linalg.Matrix // T × pη, columns scaled by sqrt eigenvalues
	GPs       []*GP          // one per basis column
	Explained float64        // PCA variance captured
	// ResidVar is the per-time-point variance left outside the basis
	// (the w₀ term of eq. 3).
	ResidVar []float64
}

// FitMulti fits the basis representation to a design (unit-cube inputs) and
// an n × T output matrix, with pη basis functions (the paper uses pη = 5).
func FitMulti(x [][]float64, y *linalg.Matrix, numBasis int) (*MultiGP, error) {
	n := len(x)
	if y.Rows != n || n == 0 {
		return nil, fmt.Errorf("gp: output rows %d vs design %d", y.Rows, n)
	}
	if numBasis <= 0 {
		numBasis = 5
	}
	mean, basis, explained, err := linalg.PCA(y, numBasis)
	if err != nil {
		return nil, err
	}
	pEta := basis.Cols
	// Weights solve the least-squares projection onto the basis:
	// W = (ΦᵀΦ)^{-1} Φᵀ (y − φ₀), column per basis function.
	btb := basis.T().Mul(basis)
	for k := 0; k < pEta; k++ {
		btb.Add(k, k, 1e-10)
	}
	l, err := linalg.Cholesky(btb)
	if err != nil {
		return nil, fmt.Errorf("gp: basis gram: %w", err)
	}
	weights := linalg.NewMatrix(n, pEta)
	resid := make([]float64, y.Cols)
	centered := make([]float64, y.Cols)
	for i := 0; i < n; i++ {
		for t := 0; t < y.Cols; t++ {
			centered[t] = y.At(i, t) - mean[t]
		}
		bty := basis.T().MulVec(centered)
		wi := linalg.SolveCholesky(l, bty)
		for k := 0; k < pEta; k++ {
			weights.Set(i, k, wi[k])
		}
		recon := basis.MulVec(wi)
		for t := 0; t < y.Cols; t++ {
			d := centered[t] - recon[t]
			resid[t] += d * d
		}
	}
	for t := range resid {
		resid[t] /= float64(n)
	}
	m := &MultiGP{Mean: mean, Basis: basis, Explained: explained, ResidVar: resid}
	// The per-basis GPs are independent (each sees only its own weight
	// column), so fit them concurrently; results are positional, keeping
	// the fit deterministic regardless of scheduling.
	m.GPs = make([]*GP, pEta)
	errs := make([]error, pEta)
	var wg sync.WaitGroup
	for k := 0; k < pEta; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			m.GPs[k], errs[k] = Fit(x, weights.Col(k))
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gp: basis %d: %w", k, err)
		}
	}
	return m, nil
}

// Predict returns the emulated output mean and pointwise variance at a
// unit-cube input.
func (m *MultiGP) Predict(theta []float64) (mean, variance []float64) {
	t := len(m.Mean)
	mean = make([]float64, t)
	variance = make([]float64, t)
	m.PredictInto(theta, mean, variance, m.NewBuf())
	return mean, variance
}

// MultiBuf is per-goroutine scratch for MultiGP predictions; one per MCMC
// chain lets concurrent likelihood evaluations share a fitted emulator
// without allocation or synchronization.
type MultiBuf struct {
	pb          *PredictBuf
	wMean, wVar []float64
}

// NewBuf sizes a scratch buffer for this emulator.
func (m *MultiGP) NewBuf() *MultiBuf {
	n := 0
	if len(m.GPs) > 0 {
		n = len(m.GPs[0].X)
	}
	return &MultiBuf{
		pb:    NewPredictBuf(n),
		wMean: make([]float64, len(m.GPs)),
		wVar:  make([]float64, len(m.GPs)),
	}
}

// PredictInto is Predict into caller-provided mean/variance slices (length
// T) using the given scratch buffer.
func (m *MultiGP) PredictInto(theta, mean, variance []float64, buf *MultiBuf) {
	pEta := len(m.GPs)
	for k, g := range m.GPs {
		buf.wMean[k], buf.wVar[k] = g.PredictInto(theta, buf.pb)
	}
	t := len(m.Mean)
	for i := 0; i < t; i++ {
		v := m.Mean[i]
		s2 := m.ResidVar[i]
		row := m.Basis.Data[i*m.Basis.Cols : i*m.Basis.Cols+pEta]
		for k, b := range row {
			v += b * buf.wMean[k]
			s2 += b * b * buf.wVar[k]
		}
		mean[i] = v
		variance[i] = s2
	}
}
