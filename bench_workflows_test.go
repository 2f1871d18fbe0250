package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/lhs"
	"repro/internal/linalg"
	"repro/internal/metapop"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/surveillance"
	"repro/internal/synthpop"
	"repro/internal/transfer"
)

// BenchmarkTableI regenerates Table I: the three representative workflows,
// their simulation counts, and the raw/summarized output volumes, by
// executing each as a simulated night on the remote cluster.
func BenchmarkTableI(b *testing.B) {
	for _, spec := range core.TableI() {
		b.Run(spec.Kind.String(), func(b *testing.B) {
			var rep *core.NightReport
			for i := 0; i < b.N; i++ {
				p := core.NewPipeline(uint64(i) + 1)
				var err error
				rep, err = p.RunNightCtx(context.Background(), core.NightConfig{Spec: spec, Heuristic: "FFDT-DC", Seed: uint64(i), Day: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(spec.Simulations()), "simulations")
			b.ReportMetric(float64(rep.RawBytes)/float64(transfer.TB), "raw_TB")
			b.ReportMetric(float64(rep.SummaryBytes)/float64(transfer.GB), "summary_GB")
			b.ReportMetric(100*rep.Utilization, "util_%")
		})
	}
}

// BenchmarkTableII regenerates Table II's data-movement rows: modeled
// transfer times for the one-time staging and the daily bands.
func BenchmarkTableII(b *testing.B) {
	link := transfer.DefaultLink()
	rows := []struct {
		name  string
		bytes int64
	}{
		{"network-staging-2TB", 2 * transfer.TB},
		{"daily-configs-min-100MB", 100 * transfer.MB},
		{"daily-configs-max-8.7GB", 87 * transfer.GB / 10},
		{"daily-summaries-min-120MB", 120 * transfer.MB},
		{"daily-summaries-max-70GB", 70 * transfer.GB},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			var dur float64
			for i := 0; i < b.N; i++ {
				var err error
				dur, err = link.Duration(row.bytes)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(dur/60, "transfer_min")
		})
	}
	b.Run("cores", func(b *testing.B) {
		var cores int
		for i := 0; i < b.N; i++ {
			cores = cluster.Bridges().TotalCores()
		}
		b.ReportMetric(float64(cores), "remote_cores")
	})
}

// BenchmarkFig13CountyCurves regenerates Figures 13 and 14: the
// county-level and state-level cumulative confirmed-case ground truth
// (3140 counties × 210 days).
func BenchmarkFig13CountyCurves(b *testing.B) {
	b.Run("CA-counties", func(b *testing.B) {
		ca, err := synthpop.StateByCode("CA")
		if err != nil {
			b.Fatal(err)
		}
		var truth *surveillance.StateTruth
		for i := 0; i < b.N; i++ {
			truth, err = surveillance.GenerateState(ca, surveillance.DefaultConfig(3))
			if err != nil {
				b.Fatal(err)
			}
		}
		cum := truth.StateCumulative()
		b.ReportMetric(float64(len(truth.Counties)), "counties")
		b.ReportMetric(cum[len(cum)-1], "final_cases")
	})
	b.Run("US-all-states", func(b *testing.B) {
		cfg := surveillance.DefaultConfig(4)
		var us map[string]*surveillance.StateTruth
		for i := 0; i < b.N; i++ {
			var err error
			us, err = surveillance.GenerateUS(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		counties := 0
		withCases := 0
		for _, st := range us {
			counties += len(st.Counties)
			withCases += st.CountiesWithCases(92) // April 22 ≈ day 92
		}
		b.ReportMetric(float64(counties), "counties")
		b.ReportMetric(float64(withCases), "counties_with_cases_apr22")
	})
}

// BenchmarkFig15PriorPosterior regenerates Figure 15: the 100-cell LHS
// prior and the calibrated posterior for Virginia, reporting the
// distribution changes the figure shows (tightened TAU/SYMP, negative
// correlation).
func BenchmarkFig15PriorPosterior(b *testing.B) {
	var cal *core.CalibrationOutcome
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(2020, core.WithScale(20000))
		var err error
		cal, err = p.RunCalibrationWorkflowCtx(context.Background(), core.CalibrationConfig{
			State: "VA", Cells: 100, Days: 70,
			Steps: 2000, PosteriorSize: 100, SigmaDeltaMax: 0.1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	tau := make([]float64, len(cal.Posterior))
	symp := make([]float64, len(cal.Posterior))
	priorTau := make([]float64, len(cal.Prior))
	for i, pr := range cal.Posterior {
		tau[i], symp[i] = pr.TAU, pr.SYMP
	}
	for i, pr := range cal.Prior {
		priorTau[i] = pr.TAU
	}
	b.ReportMetric(stats.StdDev(priorTau), "prior_tau_sd")
	b.ReportMetric(stats.StdDev(tau), "post_tau_sd")
	b.ReportMetric(stats.Correlation(tau, symp), "tau_symp_corr")
}

// BenchmarkFig16EmulatorFit regenerates Figure 16: the GP emulator's 95%
// band against the ground truth, reporting the coverage fraction the
// paper's visual check assesses.
func BenchmarkFig16EmulatorFit(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(2021, core.WithScale(20000))
		cal, err := p.RunCalibrationWorkflowCtx(context.Background(), core.CalibrationConfig{
			State: "VA", Cells: 60, Days: 70,
			Steps: 800, PosteriorSize: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		mean := cal.Posterior[0]
		coverage = cal.Calibrator.PredictiveCoverage(
			[]float64{mean.TAU, mean.SYMP, mean.SHCompliance, mean.VHICompliance},
			cal.MeanSigmaDelta, cal.MeanSigmaEps)
	}
	b.ReportMetric(100*coverage, "band_coverage_%")
}

// BenchmarkFig17Forecast regenerates Figure 17: the eight-week Virginia
// forecast with a 95% band from the posterior ensemble.
func BenchmarkFig17Forecast(b *testing.B) {
	configs := []core.Params{
		{TAU: 0.17, SYMP: 0.6, SHCompliance: 0.5, VHICompliance: 0.5},
		{TAU: 0.19, SYMP: 0.65, SHCompliance: 0.45, VHICompliance: 0.55},
		{TAU: 0.21, SYMP: 0.55, SHCompliance: 0.55, VHICompliance: 0.45},
		{TAU: 0.23, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.6},
	}
	var out *core.PredictionOutcome
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(2022, core.WithScale(20000))
		var err error
		out, err = p.RunPredictionWorkflowCtx(context.Background(), core.PredictionConfig{
			State: "VA", Configs: configs, Replicates: 5, Days: 126,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := 125
	b.ReportMetric(out.Confirmed.Median[last], "median_cases")
	b.ReportMetric(out.Confirmed.Hi[last]-out.Confirmed.Lo[last], "band_width")
	b.ReportMetric(float64(out.Counties), "counties")
}

// BenchmarkSchedulerAblation compares FIFO, NFDT-DC and FFDT-DC on the
// strict strip-packing metric plus the executed utilization — the ablation
// DESIGN.md calls out for the scheduling design choice.
func BenchmarkSchedulerAblation(b *testing.B) {
	w := sched.Workload{Cells: 12, Replicates: 15,
		Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}
	tasks := w.Tasks(stats.NewRNG(77))
	c := sched.Constraints{TotalNodes: 720, DBBound: sched.DefaultDBBounds(16)}
	algos := []struct {
		name string
		pack func([]sched.Task, sched.Constraints) (*sched.Schedule, error)
	}{
		{"FIFO", sched.FIFO},
		{"NFDT-DC", sched.NFDTDC},
		{"FFDT-DC", sched.FFDTDC},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var s *sched.Schedule
			for i := 0; i < b.N; i++ {
				var err error
				s, err = a.pack(tasks, c)
				if err != nil {
					b.Fatal(err)
				}
			}
			res, err := cluster.ExecuteBackfill(s.Flatten(), c, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*s.Utilization(), "strip_util_%")
			b.ReportMetric(100*res.Utilization, "backfill_util_%")
			b.ReportMetric(float64(len(s.Levels)), "levels")
		})
	}
}

// BenchmarkPartitionCache quantifies the static-partition design choice:
// partitioning cost versus a (cached) reuse, the reason the paper
// pre-partitions networks ("partitioning the network ... for California
// alone would take over one hour").
func BenchmarkPartitionCache(b *testing.B) {
	net := benchNetwork(b, "CA", 2500)
	b.Run("partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.PartitionNodes(16, 0.01)
		}
	})
	b.Run("simulate-per-partitioning", func(b *testing.B) {
		// One 40-day simulation — the unit of work a cached partition
		// amortizes against.
		for i := 0; i < b.N; i++ {
			runSim(b, net, 8, nil, 40, 3)
		}
	})
}

// BenchmarkNodeCategoryAblation compares the paper's 3-category node
// assignment (small=2, medium=4, large=6) against a uniform assignment, on
// executed utilization and makespan.
func BenchmarkNodeCategoryAblation(b *testing.B) {
	c := sched.Constraints{TotalNodes: 720, DBBound: sched.DefaultDBBounds(16)}
	build := func(uniform bool) []sched.Task {
		w := sched.Workload{Cells: 12, Replicates: 15,
			Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}
		tasks := w.Tasks(stats.NewRNG(88))
		if uniform {
			for i := range tasks {
				// Same node count everywhere; rescale time so total
				// work stays comparable.
				tasks[i].Time *= float64(tasks[i].Nodes) / 4
				tasks[i].Nodes = 4
			}
		}
		return tasks
	}
	for _, mode := range []string{"categorized", "uniform"} {
		b.Run(mode, func(b *testing.B) {
			var res cluster.ExecResult
			for i := 0; i < b.N; i++ {
				tasks := build(mode == "uniform")
				s, err := sched.FFDTDC(tasks, c)
				if err != nil {
					b.Fatal(err)
				}
				res, err = cluster.ExecuteBackfill(s.Flatten(), c, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Utilization, "util_%")
			b.ReportMetric(res.Makespan/3600, "makespan_h")
		})
	}
}

// BenchmarkEmulatorVsDirect compares GP-emulator calibration against
// direct-simulation MCMC on the metapopulation model — the paper's
// motivation for the emulator ("when running the simulation is expensive,
// an emulator can be used in place of the actual simulation").
func BenchmarkEmulatorVsDirect(b *testing.B) {
	ri, err := synthpop.StateByCode("RI")
	if err != nil {
		b.Fatal(err)
	}
	model, err := metapop.NewFromState(ri, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	trueP := metapop.Params{Beta: 0.45, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.25}
	seeds := []metapop.Seed{{CountyIndex: 0, Infectious: 10}}
	traj, err := model.Run(trueP, 100, seeds, nil)
	if err != nil {
		b.Fatal(err)
	}
	truth := &surveillance.StateTruth{State: "RI", Days: 100}
	for c := range model.Counties {
		truth.Counties = append(truth.Counties, surveillance.CountySeries{
			FIPS: model.Counties[c].FIPS, Daily: traj.NewConfirmed[c],
		})
	}
	b.Run("direct-mcmc", func(b *testing.B) {
		var res *metapop.CalibResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = model.Calibrate(truth, metapop.CalibConfig{
				BetaLo: 0.2, BetaHi: 0.8, DetectLo: 0.05, DetectHi: 0.6,
				Sigma: trueP.Sigma, Gamma: trueP.Gamma,
				Days: 100, Seeds: seeds, Steps: 300, BurnIn: 300, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.MAP.Beta, "map_beta")
	})
	b.Run("emulator", func(b *testing.B) {
		// Emulate the state cumulative curve over beta and calibrate on
		// the emulator instead of the simulator.
		var best float64
		for i := 0; i < b.N; i++ {
			best = calibrateViaEmulator(b, model, trueP, seeds)
		}
		b.ReportMetric(best, "map_beta")
	})
}

// calibrateViaEmulator builds a small emulator over beta and runs the
// GPMSA-style calibration against the truth.
func calibrateViaEmulator(b *testing.B, model *metapop.Model, trueP metapop.Params, seeds []metapop.Seed) float64 {
	b.Helper()
	r := stats.NewRNG(6)
	d, err := calib.NewLHSDesign(r, 30, []lhs.Range{{Name: "beta", Lo: 0.2, Hi: 0.8}})
	if err != nil {
		b.Fatal(err)
	}
	obs := calib.Log1p(trajCum(b, model, trueP, seeds))
	d.Outputs = linalg.NewMatrix(30, len(obs))
	for i, th := range d.Thetas {
		p := trueP
		p.Beta = th[0]
		cum := calib.Log1p(trajCum(b, model, p, seeds))
		for j, v := range cum {
			d.Outputs.Set(i, j, v)
		}
	}
	cal, err := calib.Fit(d, obs, calib.Config{NumBasis: 4})
	if err != nil {
		b.Fatal(err)
	}
	post, err := cal.SampleCtx(context.Background(), calib.Config{Steps: 500, BurnIn: 300, Seed: 7}, 50)
	if err != nil {
		b.Fatal(err)
	}
	return post.MAPTheta[0]
}

func trajCum(b *testing.B, model *metapop.Model, p metapop.Params, seeds []metapop.Seed) []float64 {
	b.Helper()
	cum, err := model.StateCurve(p, 100, seeds, nil)
	if err != nil {
		b.Fatal(err)
	}
	return cum
}

// BenchmarkDBConnectionBound sweeps B(T[r]), showing how the database
// constraint throttles the nightly throughput — the parameter that defines
// DB-WMP.
func BenchmarkDBConnectionBound(b *testing.B) {
	for _, bound := range []int{4, 8, 16, 32, 1000} {
		b.Run(fmt.Sprintf("B=%d", bound), func(b *testing.B) {
			var res cluster.ExecResult
			for i := 0; i < b.N; i++ {
				w := sched.Workload{Cells: 12, Replicates: 15,
					Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}
				tasks := w.Tasks(stats.NewRNG(12))
				c := sched.Constraints{TotalNodes: 720, DBBound: sched.DefaultDBBounds(bound)}
				s, err := sched.FFDTDC(tasks, c)
				if err != nil {
					b.Fatal(err)
				}
				res, err = cluster.ExecuteBackfill(s.Flatten(), c, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Utilization, "util_%")
			b.ReportMetric(res.Makespan/3600, "makespan_h")
		})
	}
}

// BenchmarkTableIIIProgression exercises the Table III disease-progression
// machinery: full within-host trajectories across age bands.
func BenchmarkTableIIIProgression(b *testing.B) {
	m := disease.COVID19()
	r := stats.NewRNG(13)
	b.ReportAllocs()
	dead := 0
	for i := 0; i < b.N; i++ {
		ag := disease.AgeGroup(i % int(disease.NumAgeGroups))
		s := disease.Exposed
		for {
			next, _, ok := m.Next(s, ag, r)
			if !ok {
				break
			}
			s = next
		}
		if s == disease.Dead {
			dead++
		}
	}
	if b.N > 1000 {
		b.ReportMetric(100*float64(dead)/float64(b.N), "death_%")
	}
}
