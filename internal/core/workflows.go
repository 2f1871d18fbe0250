package core

import (
	"context"
	"fmt"

	"repro/internal/calib"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/lhs"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/surveillance"
	"repro/internal/synthpop"
	"repro/internal/transfer"
)

// interventionsFor builds the VA-case-study intervention stack for a cell:
// SC at 100% compliance, SH and VHI at the cell's compliance parameters.
// Timing follows the case study: SC from day shStart, SH from shStart+15
// through shEnd.
func interventionsFor(pr Params, shStart, shEnd int) []epihiper.Intervention {
	return []epihiper.Intervention{
		&epihiper.VoluntaryHomeIsolation{Compliance: pr.VHICompliance, IsolationDays: 14},
		&epihiper.SchoolClosure{StartDay: shStart, EndDay: shEnd},
		&epihiper.StayAtHome{StartDay: shStart + 15, EndDay: shEnd, Compliance: pr.SHCompliance},
	}
}

// runJobs executes jobs on the simulation stage and records the Table I
// transfer accounting (configs out on the given day, summaries back).
// Cancelling ctx stops dispatching new jobs and returns ctx.Err(), so
// abandoned requests stop burning CPU.
func (p *Pipeline) runJobs(ctx context.Context, day int, label string, jobs []SimJob, shStart, shEnd int) ([]*SimOutput, error) {
	ctx, sp := obs.StartSpan(ctx, "sim",
		obs.String("label", label), obs.Int("jobs", int64(len(jobs))))
	defer sp.End()
	// Daily configuration push (100MB–8.7GB band at full scale).
	configBytes := int64(len(jobs)) * 64 * transfer.KB
	if _, err := p.Ledger.Move(ctx, day, transfer.HomeToRemote, label+"-configs", configBytes); err != nil {
		return nil, err
	}
	outs := make([]*SimOutput, len(jobs))
	err := fanOut(ctx, jobs, func(_ context.Context, i int) (err error) {
		outs[i], err = p.RunSim(jobs[i], shStart, shEnd)
		return err
	})
	if err != nil {
		return nil, err
	}
	var summaryBytes int64
	for _, o := range outs {
		summaryBytes += o.Agg.SummaryBytes()
	}
	if _, err := p.Ledger.Move(ctx, day, transfer.RemoteToHome, label+"-summaries", summaryBytes); err != nil {
		return nil, err
	}
	return outs, nil
}

// CalibrationConfig parameterizes the calibration workflow (Figure 4 and
// case study 3).
type CalibrationConfig struct {
	State string
	// Cells is the prior design size (the VA case study uses 100; the
	// Table I calibration row uses 300).
	Cells int
	// Days is the simulated horizon; the observation is truncated to it.
	Days int
	// Ranges bound the four parameters; zero values take the case-study
	// defaults.
	TAURange, SYMPRange, SHRange, VHIRange [2]float64
	// SHStart / SHEnd time the mitigation schedule.
	SHStart, SHEnd int
	// MCMC controls.
	Steps, BurnIn, PosteriorSize int
	// Chains is the number of over-dispersed MCMC chains (default 4) and
	// ChainParallelism how many run concurrently (default: all). Results
	// are bit-identical for a fixed seed at any parallelism.
	Chains, ChainParallelism int
	// RHatMax / MinESS, when positive, gate the posterior on split-R̂ and
	// effective sample size: a failed gate surfaces as a
	// *mcmc.ConvergenceError alongside the (still usable) outcome.
	RHatMax, MinESS float64
	Day             int // pipeline day for transfer accounting

	// TruthOffset aligns simulation day 0 with the surveillance day when
	// community spread begins (default 40: early March for a Jan 21
	// day 0). TruthAttack sets the synthetic ground truth's final attack
	// rate; at heavy down-scaling the truth epidemic must be large
	// enough to be resolvable at whole-synthetic-person granularity
	// (the paper's 1:1 population has no such constraint — DESIGN.md,
	// substitutions).
	TruthOffset int
	TruthAttack float64
	// SigmaDeltaMax caps the discrepancy scale σδ (default: the
	// observation's standard deviation). A smaller cap forces the
	// parameters — rather than the discrepancy term — to explain the
	// curve's magnitude, sharpening parameter identification.
	SigmaDeltaMax float64
}

func (c *CalibrationConfig) fillDefaults() {
	if c.Cells <= 0 {
		c.Cells = 100
	}
	if c.Days <= 0 {
		c.Days = 70
	}
	if c.TAURange == [2]float64{} {
		c.TAURange = [2]float64{0.08, 0.35}
	}
	if c.SYMPRange == [2]float64{} {
		c.SYMPRange = [2]float64{0.35, 0.85}
	}
	if c.SHRange == [2]float64{} {
		c.SHRange = [2]float64{0.1, 0.9}
	}
	if c.VHIRange == [2]float64{} {
		c.VHIRange = [2]float64{0.1, 0.9}
	}
	if c.SHStart <= 0 {
		c.SHStart = 15
	}
	if c.SHEnd <= 0 {
		c.SHEnd = c.Days
	}
	if c.Steps <= 0 {
		c.Steps = 1200
	}
	if c.BurnIn <= 0 {
		c.BurnIn = c.Steps / 2
	}
	if c.PosteriorSize <= 0 {
		c.PosteriorSize = 100
	}
	if c.TruthOffset <= 0 {
		c.TruthOffset = 40
	}
	if c.TruthAttack <= 0 {
		c.TruthAttack = 0.25
	}
}

// CalibrationOutcome is the calibration workflow's product: the prior
// design, the fitted calibrator, and the posterior configurations the
// prediction workflow consumes.
type CalibrationOutcome struct {
	Config     CalibrationConfig
	Prior      []Params
	Posterior  []Params
	Calibrator *calib.Calibrator
	Sims       []*SimOutput
	// ObsLog is the logged ground-truth cumulative series the fit used.
	ObsLog     []float64
	AcceptRate float64
	// Chain diagnostics from the multi-chain sampler: split-R̂ and ESS per
	// MCMC coordinate ([θ..., σδ, σε]) and whether the run met the
	// configured (or default-advisory) convergence thresholds.
	RHat, ESS []float64
	Converged bool
	// MeanSigmaDelta / MeanSigmaEps are the posterior means of the
	// discrepancy and observation-noise scales, used by the Figure 16
	// predictive band.
	MeanSigmaDelta, MeanSigmaEps float64
}

// RunCalibrationWorkflowCtx executes Figure 4 end to end: LHS prior
// design → EpiHiper simulations for every cell → aggregation to logged
// cumulative confirmed-case curves → GP-emulator Bayesian calibration
// against the ground truth → posterior configurations. Cancelling ctx stops
// the simulation fan-out and skips the MCMC fit.
func (p *Pipeline) RunCalibrationWorkflowCtx(ctx context.Context, cfg CalibrationConfig) (*CalibrationOutcome, error) {
	cfg.fillDefaults()
	ctx, sp := obs.StartSpan(ctx, "workflow.calibration",
		obs.String("state", cfg.State), obs.Int("cells", int64(cfg.Cells)))
	defer sp.End()
	st, err := synthpop.StateByCode(cfg.State)
	if err != nil {
		return nil, err
	}
	// Calibration-specific ground truth: larger attack so the scaled
	// curve is resolvable, no second wave inside the fitting window.
	tcfg := surveillance.DefaultConfig(p.Seed)
	tcfg.AttackRate = cfg.TruthAttack
	tcfg.SecondWave = false
	tcfg.Days = cfg.TruthOffset + cfg.Days
	truth, err := surveillance.GenerateState(st, tcfg)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(p.Seed ^ 0xCA11B)
	ranges := []lhs.Range{
		{Name: "TAU", Lo: cfg.TAURange[0], Hi: cfg.TAURange[1]},
		{Name: "SYMP", Lo: cfg.SYMPRange[0], Hi: cfg.SYMPRange[1]},
		{Name: "SH", Lo: cfg.SHRange[0], Hi: cfg.SHRange[1]},
		{Name: "VHI", Lo: cfg.VHIRange[0], Hi: cfg.VHIRange[1]},
	}
	design, err := calib.NewLHSDesign(r, cfg.Cells, ranges)
	if err != nil {
		return nil, err
	}
	out := &CalibrationOutcome{Config: cfg}
	jobs := make([]SimJob, cfg.Cells)
	for i, th := range design.Thetas {
		pr := Params{TAU: th[0], SYMP: th[1], SHCompliance: th[2], VHICompliance: th[3]}
		out.Prior = append(out.Prior, pr)
		jobs[i] = SimJob{State: cfg.State, Cell: i, Replicate: 0, Params: pr, Days: cfg.Days}
	}
	sims, err := p.runJobs(ctx, cfg.Day, "calibration", jobs, cfg.SHStart, cfg.SHEnd)
	if err != nil {
		return nil, err
	}
	out.Sims = sims
	design.Outputs = linalg.NewMatrix(cfg.Cells, cfg.Days)
	for i, s := range sims {
		logged := calib.Log1p(s.Agg.StateConfirmedCumulative())
		for d, v := range logged {
			design.Outputs.Set(i, d, v)
		}
	}
	// Observation: state cumulative cases in the window starting at the
	// community-spread onset, scaled to the synthetic population
	// (1:Scale) and logged.
	full := truth.StateCumulative()
	obs := make([]float64, cfg.Days)
	base := full[cfg.TruthOffset]
	for i := range obs {
		obs[i] = (full[cfg.TruthOffset+i] - base) / float64(p.Scale)
	}
	out.ObsLog = calib.Log1p(obs)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cal, err := calib.Fit(design, out.ObsLog, calib.Config{NumBasis: 5})
	if err != nil {
		return nil, err
	}
	out.Calibrator = cal
	post, err := cal.SampleCtx(ctx, calib.Config{
		Steps: cfg.Steps, BurnIn: cfg.BurnIn, Seed: p.Seed ^ 0x9057E7107,
		SigmaDeltaMax: cfg.SigmaDeltaMax,
		Chains:        cfg.Chains, Parallelism: cfg.ChainParallelism,
		RHatMax: cfg.RHatMax, MinESS: cfg.MinESS,
	}, cfg.PosteriorSize)
	if post == nil {
		return nil, err
	}
	out.fillPosterior(post)
	// A convergence-gate failure still delivers the outcome so callers can
	// inspect the diagnostics (and, e.g., rerun with more steps).
	return out, err
}

// fillPosterior copies the sampled posterior and its chain diagnostics
// into the outcome.
func (out *CalibrationOutcome) fillPosterior(post *calib.Posterior) {
	out.AcceptRate = post.AcceptRate
	out.RHat = post.RHat
	out.ESS = post.ESS
	out.Converged = post.Converged
	out.MeanSigmaDelta = stats.Mean(post.SigmaDelta)
	out.MeanSigmaEps = stats.Mean(post.SigmaEps)
	for _, th := range post.Thetas {
		out.Posterior = append(out.Posterior, Params{
			TAU: th[0], SYMP: th[1], SHCompliance: th[2], VHICompliance: th[3],
		})
	}
}

// RefitCalibration re-runs the Bayesian fit of an existing calibration
// against updated ground truth without re-simulating — the paper's
// resume path: "the calibration workflow typically resumes when ground
// truth data is updated ... may reuse the existing model configurations".
// The refit horizon is capped at the original simulation horizon.
func (p *Pipeline) RefitCalibration(prev *CalibrationOutcome, newDays int) (*CalibrationOutcome, error) {
	if prev == nil || prev.Calibrator == nil {
		return nil, fmt.Errorf("core: nothing to refit")
	}
	cfg := prev.Config
	if newDays <= 0 || newDays > cfg.Days {
		newDays = cfg.Days
	}
	st, err := synthpop.StateByCode(cfg.State)
	if err != nil {
		return nil, err
	}
	tcfg := surveillance.DefaultConfig(p.Seed)
	tcfg.AttackRate = cfg.TruthAttack
	tcfg.SecondWave = false
	tcfg.Days = cfg.TruthOffset + cfg.Days
	truth, err := surveillance.GenerateState(st, tcfg)
	if err != nil {
		return nil, err
	}
	full := truth.StateCumulative()
	obs := make([]float64, newDays)
	base := full[cfg.TruthOffset]
	for i := range obs {
		obs[i] = (full[cfg.TruthOffset+i] - base) / float64(p.Scale)
	}
	// Rebuild the design over the truncated horizon from the retained
	// simulation outputs.
	d := prev.Calibrator.Design
	design := &calib.Design{Ranges: d.Ranges, Thetas: d.Thetas}
	design.Outputs = linalg.NewMatrix(d.Outputs.Rows, newDays)
	for i := 0; i < d.Outputs.Rows; i++ {
		for j := 0; j < newDays; j++ {
			design.Outputs.Set(i, j, d.Outputs.At(i, j))
		}
	}
	out := &CalibrationOutcome{Config: cfg, Prior: prev.Prior, Sims: prev.Sims}
	cfg.Days = newDays
	out.Config = cfg
	out.ObsLog = calib.Log1p(obs)
	cal, err := calib.Fit(design, out.ObsLog, calib.Config{NumBasis: 5})
	if err != nil {
		return nil, err
	}
	out.Calibrator = cal
	post, err := cal.SampleCtx(context.Background(), calib.Config{
		Steps: cfg.Steps, BurnIn: cfg.BurnIn, Seed: p.Seed ^ 0x9057E7107 ^ uint64(newDays),
		SigmaDeltaMax: cfg.SigmaDeltaMax,
		Chains:        cfg.Chains, Parallelism: cfg.ChainParallelism,
		RHatMax: cfg.RHatMax, MinESS: cfg.MinESS,
	}, cfg.PosteriorSize)
	if post == nil {
		return nil, err
	}
	out.fillPosterior(post)
	return out, err
}

// PredictionConfig parameterizes the prediction workflow (Figure 5).
type PredictionConfig struct {
	State string
	// Configs are the model configurations from calibration; the workflow
	// simulates each with Replicates replicates.
	Configs    []Params
	Replicates int
	Days       int
	SHStart    int
	SHEnd      int
	Day        int
}

// fillDefaults completes the horizon and mitigation schedule; replicates is
// the calling workflow's default ensemble size.
func (c *PredictionConfig) fillDefaults(replicates int) {
	if c.Replicates <= 0 {
		c.Replicates = replicates
	}
	if c.Days <= 0 {
		c.Days = 120
	}
	if c.SHStart <= 0 {
		c.SHStart = 15
	}
	if c.SHEnd <= 0 {
		c.SHEnd = c.Days
	}
}

// Forecast is a daily series with a 95% band.
type Forecast struct {
	Median, Lo, Hi []float64
}

// PredictionOutcome carries the ensemble forecast.
type PredictionOutcome struct {
	Config PredictionConfig
	// Cumulative confirmed cases, state level, with uncertainty.
	Confirmed Forecast
	// Hospitalized and Deaths support the other forecasting targets.
	Hospitalized Forecast
	Deaths       Forecast
	// CountyMedian maps county FIPS to its median cumulative confirmed
	// series (the county-level forecast product).
	CountyMedian map[int32][]float64
	Sims         []*SimOutput
}

// RunPredictionWorkflowCtx executes Figure 5: simulate every calibrated
// configuration with replicates, aggregate, and quantify uncertainty.
// Cancelling ctx stops the replicate fan-out and returns ctx.Err().
func (p *Pipeline) RunPredictionWorkflowCtx(ctx context.Context, cfg PredictionConfig) (*PredictionOutcome, error) {
	if len(cfg.Configs) == 0 {
		return nil, fmt.Errorf("core: prediction needs calibrated configs")
	}
	ctx, sp := obs.StartSpan(ctx, "workflow.prediction",
		obs.String("state", cfg.State), obs.Int("configs", int64(len(cfg.Configs))))
	defer sp.End()
	cfg.fillDefaults(15)
	var jobs []SimJob
	for c, pr := range cfg.Configs {
		for rep := 0; rep < cfg.Replicates; rep++ {
			jobs = append(jobs, SimJob{
				State: cfg.State, Cell: c, Replicate: rep, Params: pr, Days: cfg.Days,
			})
		}
	}
	sims, err := p.runJobs(ctx, cfg.Day, "prediction", jobs, cfg.SHStart, cfg.SHEnd)
	if err != nil {
		return nil, err
	}
	out := &PredictionOutcome{Config: cfg, Sims: sims, CountyMedian: map[int32][]float64{}}
	out.Confirmed = ensembleBand(sims, cfg.Days, func(s *SimOutput) []float64 {
		return s.Agg.StateConfirmedCumulative()
	})
	out.Hospitalized = ensembleBand(sims, cfg.Days, func(s *SimOutput) []float64 {
		return s.Agg.StateCumulative(disease.Hospitalized)
	})
	out.Deaths = ensembleBand(sims, cfg.Days, func(s *SimOutput) []float64 {
		return s.Agg.StateCumulative(disease.Dead)
	})
	// County-level medians.
	counties := sims[0].Agg.Counties()
	for _, county := range counties {
		c := county
		f := ensembleBand(sims, cfg.Days, func(s *SimOutput) []float64 {
			cum := make([]float64, cfg.Days)
			acc := 0.0
			for d, v := range s.Agg.ConfirmedCases(c) {
				acc += float64(v)
				cum[d] = acc
			}
			return cum
		})
		out.CountyMedian[c] = f.Median
	}
	return out, nil
}

// ensembleBand computes pointwise (2.5, 50, 97.5) percentiles over the
// extracted series of every simulation.
func ensembleBand(sims []*SimOutput, days int, extract func(*SimOutput) []float64) Forecast {
	series := make([][]float64, len(sims))
	for i, s := range sims {
		series[i] = extract(s)
	}
	f := Forecast{
		Median: make([]float64, days),
		Lo:     make([]float64, days),
		Hi:     make([]float64, days),
	}
	vals := make([]float64, len(series))
	for d := 0; d < days; d++ {
		for i := range series {
			vals[i] = series[i][d]
		}
		qs := stats.Quantiles(vals, 0.025, 0.5, 0.975)
		f.Lo[d], f.Median[d], f.Hi[d] = qs[0], qs[1], qs[2]
	}
	return f
}

// CounterfactualConfig parameterizes the economic / counter-factual
// workflow (Figure 3): a factorial design of NPI durations and compliances.
type CounterfactualConfig struct {
	States     []string
	Replicates int
	Days       int
	// Base is the calibrated parameter setting (towards R0 = 2.5).
	Base Params
	// VHICompliances × SHDurations × SHCompliances form the factorial
	// design (2 × 3 × 2 = 12 cells in the paper).
	VHICompliances []float64
	SHDurations    []int
	SHCompliances  []float64
	SHStart        int
	Day            int
}

// Cell is one factorial combination.
type Cell struct {
	Index                       int
	VHICompliance, SHCompliance float64
	SHDuration                  int
}

// Name renders the cell for reports.
func (c Cell) Name() string {
	return fmt.Sprintf("cell%02d-vhi%.0f%%-sh%dd-c%.0f%%",
		c.Index, c.VHICompliance*100, c.SHDuration, c.SHCompliance*100)
}

// CounterfactualOutcome carries per-cell aggregate results.
type CounterfactualOutcome struct {
	Config CounterfactualConfig
	Cells  []Cell
	// Sims[cellIndex] lists the outputs across states and replicates.
	Sims map[int][]*SimOutput
}

// FactorialCells expands the design.
func (cfg CounterfactualConfig) FactorialCells() []Cell {
	var out []Cell
	i := 0
	for _, vhi := range cfg.VHICompliances {
		for _, dur := range cfg.SHDurations {
			for _, shc := range cfg.SHCompliances {
				out = append(out, Cell{Index: i, VHICompliance: vhi, SHCompliance: shc, SHDuration: dur})
				i++
			}
		}
	}
	return out
}

// RunCounterfactualWorkflowCtx executes Figure 3: the factorial design
// across the given regions with replicates, cancellable between cells and
// between jobs within a cell.
func (p *Pipeline) RunCounterfactualWorkflowCtx(ctx context.Context, cfg CounterfactualConfig) (*CounterfactualOutcome, error) {
	if len(cfg.States) == 0 {
		return nil, fmt.Errorf("core: counterfactual needs states")
	}
	if cfg.Replicates <= 0 {
		cfg.Replicates = 15
	}
	if cfg.Days <= 0 {
		cfg.Days = 120
	}
	if cfg.SHStart <= 0 {
		cfg.SHStart = 15
	}
	cells := cfg.FactorialCells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: empty factorial design")
	}
	ctx, sp := obs.StartSpan(ctx, "workflow.economic",
		obs.Int("cells", int64(len(cells))), obs.Int("states", int64(len(cfg.States))))
	defer sp.End()
	out := &CounterfactualOutcome{Config: cfg, Cells: cells, Sims: map[int][]*SimOutput{}}
	for _, cell := range cells {
		pr := cfg.Base
		pr.VHICompliance = cell.VHICompliance
		pr.SHCompliance = cell.SHCompliance
		var jobs []SimJob
		for _, st := range cfg.States {
			for rep := 0; rep < cfg.Replicates; rep++ {
				jobs = append(jobs, SimJob{
					State: st, Cell: cell.Index, Replicate: rep, Params: pr, Days: cfg.Days,
				})
			}
		}
		sims, err := p.runJobs(ctx, cfg.Day, fmt.Sprintf("economic-%s", cell.Name()), jobs,
			cfg.SHStart, cfg.SHStart+cell.SHDuration)
		if err != nil {
			return nil, err
		}
		out.Sims[cell.Index] = sims
	}
	return out, nil
}
