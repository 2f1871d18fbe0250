// Package mcmc provides the Markov chain Monte Carlo machinery used by the
// Bayesian calibration workflows: a random-walk Metropolis sampler over a
// box prior (the paper gives every calibration parameter a uniform prior
// over its range), adaptive step scaling during burn-in, and simple chain
// diagnostics.
package mcmc

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// LogTarget evaluates the unnormalized log posterior at a parameter vector.
type LogTarget func(theta []float64) float64

// Config controls a Metropolis run.
type Config struct {
	// Init is the starting point; it must lie inside the prior box.
	Init []float64
	// Lo and Hi bound the uniform prior box.
	Lo, Hi []float64
	// Steps is the post-burn-in chain length.
	Steps int
	// BurnIn steps are discarded (and used for step-size adaptation).
	BurnIn int
	// Thin keeps every Thin-th sample (1 = keep all).
	Thin int
	// StepFrac is the initial proposal standard deviation as a fraction
	// of each parameter's range.
	StepFrac float64
	Seed     uint64
}

// Result holds the retained samples and diagnostics.
type Result struct {
	Samples    [][]float64
	LogPosts   []float64
	AcceptRate float64
	// Best is the highest-posterior sample seen (including burn-in).
	Best     []float64
	BestLogP float64
}

// Metropolis runs a random-walk Metropolis chain with reflection at the
// prior box boundaries. During burn-in the proposal scale adapts toward a
// ~30% acceptance rate.
func Metropolis(target LogTarget, cfg Config) (*Result, error) {
	d := len(cfg.Init)
	if d == 0 {
		return nil, fmt.Errorf("mcmc: empty initial point")
	}
	if len(cfg.Lo) != d || len(cfg.Hi) != d {
		return nil, fmt.Errorf("mcmc: bounds dimension mismatch (%d, %d vs %d)", len(cfg.Lo), len(cfg.Hi), d)
	}
	for k := 0; k < d; k++ {
		if cfg.Hi[k] < cfg.Lo[k] {
			return nil, fmt.Errorf("mcmc: inverted bound in dim %d", k)
		}
		if cfg.Init[k] < cfg.Lo[k] || cfg.Init[k] > cfg.Hi[k] {
			return nil, fmt.Errorf("mcmc: init outside prior box in dim %d", k)
		}
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("mcmc: non-positive steps %d", cfg.Steps)
	}
	if cfg.Thin <= 0 {
		cfg.Thin = 1
	}
	if cfg.StepFrac <= 0 {
		cfg.StepFrac = 0.1
	}
	r := stats.NewRNG(cfg.Seed)
	scale := make([]float64, d)
	for k := range scale {
		span := cfg.Hi[k] - cfg.Lo[k]
		if span == 0 {
			span = 1e-12
		}
		scale[k] = cfg.StepFrac * span
	}
	cur := append([]float64(nil), cfg.Init...)
	curLP := target(cur)
	// A NaN initial log-posterior would make the accept test permanently
	// false (NaN comparisons are false, exp(NaN) is NaN), silently running
	// a chain stuck at Init. Error out instead.
	if math.IsNaN(curLP) {
		return nil, fmt.Errorf("mcmc: target is NaN at the initial point %v", cur)
	}
	res := &Result{Best: append([]float64(nil), cur...), BestLogP: curLP}
	prop := make([]float64, d)
	accepted, proposed := 0, 0
	adaptAccepted, adaptWindow := 0, 0

	total := cfg.BurnIn + cfg.Steps
	for step := 0; step < total; step++ {
		for k := 0; k < d; k++ {
			prop[k] = reflect(cur[k]+r.Norm()*scale[k], cur[k], cfg.Lo[k], cfg.Hi[k])
		}
		lp := target(prop)
		proposed++
		// A NaN proposal log-posterior is an explicit rejection (never a
		// new state): accepting it would poison curLP and wedge the chain
		// the same way a NaN init does.
		accept := false
		if !math.IsNaN(lp) {
			accept = lp >= curLP || r.Float64() < math.Exp(lp-curLP)
		}
		if accept {
			copy(cur, prop)
			curLP = lp
			accepted++
			adaptAccepted++
			if lp > res.BestLogP {
				res.BestLogP = lp
				copy(res.Best, cur)
			}
		}
		adaptWindow++
		// Adapt during burn-in every 50 proposals.
		if step < cfg.BurnIn && adaptWindow >= 50 {
			rate := float64(adaptAccepted) / float64(adaptWindow)
			factor := 1.0
			if rate < 0.15 {
				factor = 0.7
			} else if rate > 0.45 {
				factor = 1.4
			}
			for k := range scale {
				scale[k] *= factor
			}
			adaptAccepted, adaptWindow = 0, 0
		}
		if step >= cfg.BurnIn && (step-cfg.BurnIn)%cfg.Thin == 0 {
			res.Samples = append(res.Samples, append([]float64(nil), cur...))
			res.LogPosts = append(res.LogPosts, curLP)
		}
	}
	res.AcceptRate = float64(accepted) / float64(proposed)
	return res, nil
}

// maxReflections bounds the boundary-reflection loop. A finite draw that is
// k·span outside the box needs ~k reflections; anything needing more than
// this is a pathological proposal scale and is clamped to the bound instead.
const maxReflections = 64

// reflect folds a proposal coordinate into [lo, hi] by reflecting at the
// bounds. Non-finite draws are handled explicitly: ±Inf would oscillate
// between 2·lo−x and 2·hi−x forever (2·lo−(+Inf) = −Inf, 2·hi−(−Inf) = +Inf),
// so infinities clamp to the nearest bound and a NaN draw (e.g. 0·Inf from a
// degenerate scale) keeps the current value.
func reflect(x, cur, lo, hi float64) float64 {
	span := hi - lo
	if span <= 0 {
		return lo
	}
	if math.IsNaN(x) {
		return cur
	}
	for iter := 0; x < lo || x > hi; iter++ {
		if math.IsInf(x, 0) || iter >= maxReflections {
			if x < lo {
				return lo
			}
			return hi
		}
		if x < lo {
			x = 2*lo - x
		}
		if x > hi {
			x = 2*hi - x
		}
	}
	return x
}

// ESS estimates the effective sample size of one coordinate using the
// initial-positive-sequence autocorrelation estimator.
func ESS(samples [][]float64, k int) float64 {
	n := len(samples)
	if n < 4 {
		return float64(n)
	}
	col := make([]float64, n)
	for i, x := range samples {
		col[i] = x[k]
	}
	m := stats.Mean(col)
	var c0 float64
	for _, v := range col {
		c0 += (v - m) * (v - m)
	}
	c0 /= float64(n)
	if c0 == 0 {
		return float64(n)
	}
	sumRho := 0.0
	for lag := 1; lag < n/2; lag++ {
		var c float64
		for i := 0; i+lag < n; i++ {
			c += (col[i] - m) * (col[i+lag] - m)
		}
		c /= float64(n)
		rho := c / c0
		if rho <= 0 {
			break
		}
		sumRho += rho
	}
	ess := float64(n) / (1 + 2*sumRho)
	if ess > float64(n) {
		ess = float64(n)
	}
	return ess
}
