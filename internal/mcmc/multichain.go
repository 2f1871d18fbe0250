package mcmc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// MultiConfig controls a multi-chain Metropolis run. The embedded Config
// describes each individual chain (Init seeds chain 0; the remaining chains
// start from over-dispersed points drawn uniformly in the prior box).
type MultiConfig struct {
	Config
	// Chains is the number of independent chains M (default 4).
	Chains int
	// Parallelism caps how many chains run concurrently (default
	// min(Chains, GOMAXPROCS)). The pooled result is bit-identical for a
	// fixed Seed at ANY parallelism: every chain's seed and starting point
	// are derived before launch, chains never share state, and draws are
	// pooled in chain order.
	Parallelism int
	// RHatMax, when > 0, gates convergence: if any coordinate's split-R̂
	// exceeds it, RunChainsCtx returns the pooled result together with a
	// *ConvergenceError instead of silently handing back a bad posterior.
	RHatMax float64
	// MinESS, when > 0, additionally requires every coordinate's pooled
	// effective sample size to reach it.
	MinESS float64
}

// MultiResult pools M chains: per-chain results, the chain-ordered pooled
// post-burn-in draws, and per-coordinate convergence diagnostics.
type MultiResult struct {
	Chains []*Result
	// Samples and LogPosts concatenate the retained draws of every chain
	// in chain order.
	Samples  [][]float64
	LogPosts []float64
	// AcceptRate averages the per-chain acceptance rates.
	AcceptRate float64
	Best       []float64
	BestLogP   float64
	// RHat is the split-R̂ of each coordinate across the chains (NaN when
	// the chains are too short to split).
	RHat []float64
	// ESS is the pooled effective sample size per coordinate (sum of the
	// per-chain estimates).
	ESS []float64
	// Converged reports whether every coordinate passed the gate (against
	// RHatMax/MinESS, or against DefaultRHatMax when no gate was set).
	Converged bool
}

// DefaultRHatMax is the advisory split-R̂ threshold used for the Converged
// flag when no explicit gate is configured. 1.05 is the conventional
// "converged" cutoff; gates may be looser.
const DefaultRHatMax = 1.05

// ConvergenceError reports a failed convergence gate. The caller still
// receives the pooled MultiResult so diagnostics can be inspected or the
// run extended.
type ConvergenceError struct {
	RHat    []float64
	ESS     []float64
	RHatMax float64
	MinESS  float64
}

func (e *ConvergenceError) Error() string {
	worstR, worstK := 0.0, -1
	for k, r := range e.RHat {
		if math.IsNaN(r) || r > worstR {
			worstR, worstK = r, k
			if math.IsNaN(r) {
				break
			}
		}
	}
	minESS, minK := math.Inf(1), -1
	for k, n := range e.ESS {
		if n < minESS {
			minESS, minK = n, k
		}
	}
	return fmt.Sprintf("mcmc: chains not converged: worst split-R̂ %.4g (dim %d, gate %.4g), min ESS %.4g (dim %d, gate %.4g)",
		worstR, worstK, e.RHatMax, minESS, minK, e.MinESS)
}

// RunChainsCtx runs M over-dispersed Metropolis chains concurrently and
// pools their post-burn-in draws. newTarget is called once per chain (with
// the chain index) before any chain starts, so targets may carry per-chain
// scratch state without synchronization; pass the same function for a
// stateless target. The result is deterministic for a fixed cfg.Seed at any
// Parallelism. It runs under an "mcmc" span with one "mcmc.chain" child per
// chain and a "calibration.gate" event recording the R̂/ESS verdict; chain
// seeding and pooling are untouched by tracing, so the posterior is
// bit-identical with or without a tracer on ctx.
func RunChainsCtx(ctx context.Context, newTarget func(chain int) LogTarget, cfg MultiConfig) (*MultiResult, error) {
	if newTarget == nil {
		return nil, fmt.Errorf("mcmc: nil target factory")
	}
	if cfg.Chains <= 0 {
		cfg.Chains = 4
	}
	m := cfg.Chains
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Parallelism > m {
		cfg.Parallelism = m
	}
	d := len(cfg.Init)
	ctx, sp := obs.StartSpan(ctx, "mcmc",
		obs.Int("chains", int64(m)),
		obs.Int("parallelism", int64(cfg.Parallelism)),
		obs.Int("steps", int64(cfg.Steps)))
	defer sp.End()

	// Derive every chain's seed and starting point up front, from a
	// dedicated seeding stream, so the per-chain work is a pure function
	// of (chain index, cfg) regardless of scheduling.
	seedRNG := stats.NewRNG(cfg.Seed ^ 0xC4A1B5EED)
	cfgs := make([]Config, m)
	for c := 0; c < m; c++ {
		cc := cfg.Config
		cc.Seed = seedRNG.Uint64()
		if c > 0 {
			// Over-dispersed start: uniform in the prior box.
			init := make([]float64, d)
			for k := 0; k < d; k++ {
				init[k] = cfg.Lo[k] + seedRNG.Float64()*(cfg.Hi[k]-cfg.Lo[k])
			}
			cc.Init = init
		}
		cfgs[c] = cc
	}
	targets := make([]LogTarget, m)
	for c := 0; c < m; c++ {
		targets[c] = newTarget(c)
	}

	results := make([]*Result, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallelism)
	for c := 0; c < m; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, csp := obs.StartSpan(ctx, "mcmc.chain", obs.Int("chain", int64(c)))
			results[c], errs[c] = Metropolis(targets[c], cfgs[c])
			if results[c] != nil {
				csp.SetAttr(obs.Float("accept_rate", results[c].AcceptRate))
			}
			csp.End()
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mcmc: chain %d: %w", c, err)
		}
	}

	out := &MultiResult{Chains: results, BestLogP: math.Inf(-1)}
	for _, r := range results {
		out.Samples = append(out.Samples, r.Samples...)
		out.LogPosts = append(out.LogPosts, r.LogPosts...)
		out.AcceptRate += r.AcceptRate / float64(m)
		if r.BestLogP > out.BestLogP {
			out.BestLogP = r.BestLogP
			out.Best = append([]float64(nil), r.Best...)
		}
	}

	chains := make([][][]float64, m)
	for c, r := range results {
		chains[c] = r.Samples
	}
	out.RHat = make([]float64, d)
	out.ESS = make([]float64, d)
	for k := 0; k < d; k++ {
		out.RHat[k] = SplitRHat(chains, k)
		for _, r := range results {
			out.ESS[k] += ESS(r.Samples, k)
		}
	}

	rGate := cfg.RHatMax
	if rGate <= 0 {
		rGate = DefaultRHatMax
	}
	out.Converged = true
	for k := 0; k < d; k++ {
		if !(out.RHat[k] <= rGate) || (cfg.MinESS > 0 && out.ESS[k] < cfg.MinESS) {
			out.Converged = false
		}
	}
	worstR, minESS := 0.0, math.Inf(1)
	for k := 0; k < d; k++ {
		if math.IsNaN(out.RHat[k]) || out.RHat[k] > worstR {
			worstR = out.RHat[k]
		}
		if out.ESS[k] < minESS {
			minESS = out.ESS[k]
		}
	}
	obs.Event(ctx, "calibration.gate",
		obs.Bool("converged", out.Converged),
		obs.Float("worst_rhat", worstR),
		obs.Float("min_ess", minESS))
	if (cfg.RHatMax > 0 || cfg.MinESS > 0) && !out.Converged {
		return out, &ConvergenceError{
			RHat: out.RHat, ESS: out.ESS,
			RHatMax: cfg.RHatMax, MinESS: cfg.MinESS,
		}
	}
	return out, nil
}

// SplitRHat computes the split-R̂ (Gelman–Rubin potential scale reduction
// with each chain split in half, the form recommended in BDA3) of
// coordinate k across the given chains. It returns NaN when fewer than 4
// draws per chain are available, and 1 for a completely degenerate (zero
// variance) coordinate — a pinned dimension is converged by definition.
func SplitRHat(chains [][][]float64, k int) float64 {
	var halves [][]float64
	// Split every chain in half; truncate odd chains so halves match.
	n := math.MaxInt
	for _, ch := range chains {
		if len(ch) < n {
			n = len(ch)
		}
	}
	if n < 4 || len(chains) == 0 {
		return math.NaN()
	}
	half := n / 2
	for _, ch := range chains {
		a := make([]float64, half)
		b := make([]float64, half)
		for i := 0; i < half; i++ {
			a[i] = ch[i][k]
			b[i] = ch[n-half+i][k]
		}
		halves = append(halves, a, b)
	}
	mGroups := len(halves)
	means := make([]float64, mGroups)
	vars := make([]float64, mGroups)
	for j, h := range halves {
		means[j] = stats.Mean(h)
		s := 0.0
		for _, v := range h {
			dv := v - means[j]
			s += dv * dv
		}
		vars[j] = s / float64(half-1)
	}
	grand := stats.Mean(means)
	w := stats.Mean(vars)
	b := 0.0
	for _, mu := range means {
		dm := mu - grand
		b += dm * dm
	}
	b *= float64(half) / float64(mGroups-1)
	if w == 0 {
		if b == 0 {
			return 1
		}
		return math.Inf(1)
	}
	varPlus := float64(half-1)/float64(half)*w + b/float64(half)
	return math.Sqrt(varPlus / w)
}
