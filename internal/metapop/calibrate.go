package metapop

import (
	"fmt"
	"math"

	"repro/internal/mcmc"
	"repro/internal/stats"
	"repro/internal/surveillance"
)

// CalibConfig controls the direct-simulation Bayesian calibration of the
// metapopulation model (Appendix E, "Metapopulation Model Calibration"):
// the likelihood treats each county's observed daily counts as Gaussian
// around the model's output with standard deviation equal to 20% of the
// daily counts, counties independent; priors are uniform over the given
// ranges; the posterior is explored with Metropolis updates.
type CalibConfig struct {
	// Bounds on (Beta, Detect); Sigma and Gamma stay fixed while the
	// paper's "transmissibility and infectious duration" are swept via
	// Beta and (optionally) Gamma when CalibrateGamma is set.
	BetaLo, BetaHi     float64
	DetectLo, DetectHi float64
	GammaLo, GammaHi   float64
	CalibrateGamma     bool
	Sigma, Gamma       float64

	// Mitigation calibration: when CalibrateMitigation is set, a
	// transmission-reduction factor applied from MitigationStart onward
	// is sampled alongside the disease parameters — the paper's
	// "better-modeled mitigations" dimension of the calibration loop.
	CalibrateMitigation        bool
	MitigationStart            int
	MitigationLo, MitigationHi float64

	Days      int
	Seeds     []Seed
	Scenarios []Scenario

	Steps, BurnIn int
	Seed          uint64
}

// CalibResult carries the posterior samples as Params.
type CalibResult struct {
	Posterior  []Params
	MAP        Params
	AcceptRate float64
	// Mitigations holds the per-draw mitigation factors when
	// CalibrateMitigation was set (parallel to Posterior); MAPMitigation
	// is the factor of the MAP draw (1 when not calibrated).
	Mitigations   []float64
	MAPMitigation float64
}

// MitigationScenario renders a calibrated factor as a Scenario starting at
// the configured day and lasting through the horizon.
func MitigationScenario(start int, factor float64) Scenario {
	return Scenario{Name: "calibrated-mitigation", Start: start, End: 1 << 30, Factor: factor}
}

// noiseSD returns the paper's observation noise: 20% of the daily count,
// floored so zero-count days don't produce infinite precision.
func noiseSD(y float64) float64 {
	sd := 0.2 * y
	if sd < 1 {
		sd = 1
	}
	return sd
}

// LogLikelihood evaluates the per-county Gaussian likelihood of the truth
// given a model trajectory. Following case study 2 ("Logged values of
// cumulative counts were modeled as noisy realization of the underlying
// disease dynamics"), the comparison is on cumulative counts with the
// Appendix E noise scale of 20% of the observed count.
func LogLikelihood(truth *surveillance.StateTruth, traj *Trajectory) float64 {
	days := truth.Days
	if traj.Days < days {
		days = traj.Days
	}
	ll := 0.0
	for c := range truth.Counties {
		if c >= len(traj.NewConfirmed) {
			break
		}
		obs := truth.Counties[c].Daily
		sim := traj.NewConfirmed[c]
		obsCum, simCum := 0.0, 0.0
		for d := 0; d < days; d++ {
			obsCum += obs[d]
			simCum += sim[d]
			// Symmetric scale: 20% of the larger of the two counts, so
			// over-prediction against a still-zero county is penalized
			// on the same relative scale as under-prediction.
			ref := obsCum
			if simCum > ref {
				ref = simCum
			}
			sd := noiseSD(ref)
			z := (obsCum - simCum) / sd
			ll += -0.5*z*z - math.Log(sd)
		}
	}
	return ll
}

// Calibrate runs the MCMC and returns posterior parameter draws.
func (m *Model) Calibrate(truth *surveillance.StateTruth, cfg CalibConfig) (*CalibResult, error) {
	if cfg.Days <= 0 {
		cfg.Days = truth.Days
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 500
	}
	if cfg.BurnIn <= 0 {
		cfg.BurnIn = cfg.Steps / 2
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = 1.0 / 3.0
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = 1.0 / 5.0
	}
	if cfg.BetaHi <= cfg.BetaLo {
		return nil, fmt.Errorf("metapop: bad beta range [%g, %g]", cfg.BetaLo, cfg.BetaHi)
	}
	if cfg.DetectHi <= cfg.DetectLo {
		return nil, fmt.Errorf("metapop: bad detect range [%g, %g]", cfg.DetectLo, cfg.DetectHi)
	}

	lo := []float64{cfg.BetaLo, cfg.DetectLo}
	hi := []float64{cfg.BetaHi, cfg.DetectHi}
	gammaIdx, mitIdx := -1, -1
	if cfg.CalibrateGamma {
		if cfg.GammaHi <= cfg.GammaLo || cfg.GammaLo <= 0 {
			return nil, fmt.Errorf("metapop: bad gamma range [%g, %g]", cfg.GammaLo, cfg.GammaHi)
		}
		gammaIdx = len(lo)
		lo = append(lo, cfg.GammaLo)
		hi = append(hi, cfg.GammaHi)
	}
	if cfg.CalibrateMitigation {
		mlo, mhi := cfg.MitigationLo, cfg.MitigationHi
		if mlo <= 0 {
			mlo = 0.1
		}
		if mhi <= mlo {
			mhi = 1
		}
		mitIdx = len(lo)
		lo = append(lo, mlo)
		hi = append(hi, mhi)
	}
	init := make([]float64, len(lo))
	for k := range init {
		init[k] = (lo[k] + hi[k]) / 2
	}

	toParams := func(theta []float64) Params {
		p := Params{Beta: theta[0], Detect: theta[1], Sigma: cfg.Sigma, Gamma: cfg.Gamma}
		if gammaIdx >= 0 {
			p.Gamma = theta[gammaIdx]
		}
		return p
	}
	scenariosFor := func(theta []float64) []Scenario {
		if mitIdx < 0 {
			return cfg.Scenarios
		}
		return append(append([]Scenario(nil), cfg.Scenarios...),
			MitigationScenario(cfg.MitigationStart, theta[mitIdx]))
	}

	target := func(theta []float64) float64 {
		p := toParams(theta)
		traj, err := m.Run(p, cfg.Days, cfg.Seeds, scenariosFor(theta))
		if err != nil {
			return math.Inf(-1)
		}
		return LogLikelihood(truth, traj)
	}

	res, err := mcmc.Metropolis(target, mcmc.Config{
		Init: init, Lo: lo, Hi: hi,
		Steps: cfg.Steps, BurnIn: cfg.BurnIn, Thin: 1,
		StepFrac: 0.05, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &CalibResult{AcceptRate: res.AcceptRate, MAP: toParams(res.Best), MAPMitigation: 1}
	if mitIdx >= 0 {
		out.MAPMitigation = res.Best[mitIdx]
	}
	for _, s := range res.Samples {
		out.Posterior = append(out.Posterior, toParams(s))
		if mitIdx >= 0 {
			out.Mitigations = append(out.Mitigations, s[mitIdx])
		}
	}
	return out, nil
}

// PredictBand runs the model at every posterior draw and returns pointwise
// (2.5%, 50%, 97.5%) bands of the state cumulative confirmed series — the
// uncertainty quantification of the prediction workflow.
func (m *Model) PredictBand(post []Params, days int, seeds []Seed, scenarios []Scenario) (lo, med, hi []float64, err error) {
	if len(post) == 0 {
		return nil, nil, nil, fmt.Errorf("metapop: empty posterior")
	}
	series := make([][]float64, 0, len(post))
	for _, p := range post {
		cum, err := m.StateCurve(p, days, seeds, scenarios)
		if err != nil {
			return nil, nil, nil, err
		}
		series = append(series, cum)
	}
	lo, med, hi = make([]float64, days), make([]float64, days), make([]float64, days)
	stats.EnsembleQuantiles(series, []float64{0.025, 0.5, 0.975}, lo, med, hi)
	return lo, med, hi, nil
}
