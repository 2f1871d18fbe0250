// Command calibrate runs the calibration workflow (Figure 4) for one state:
// an LHS prior design simulated with EpiHiper, a GP-emulator Bayesian fit
// against the surveillance ground truth, and a posterior design written as
// CSV — the model configurations the prediction workflow consumes.
//
// Usage:
//
//	calibrate -state VA -cells 100 -days 70 -scale 20000 -out posterior.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	state := fs.String("state", "VA", "region postal code")
	cells := fs.Int("cells", 100, "prior design size")
	days := fs.Int("days", 70, "calibration horizon")
	scale := fs.Int("scale", 20000, "population scale (1:N)")
	seed := fs.Uint64("seed", 2020, "random seed")
	steps := fs.Int("steps", 1200, "MCMC steps per chain")
	chains := fs.Int("chains", 4, "over-dispersed MCMC chains")
	rhatMax := fs.Float64("rhat-max", 0, "fail if any split-R̂ exceeds this (0: advisory only)")
	minESS := fs.Float64("min-ess", 0, "fail if any pooled ESS is below this (0: advisory only)")
	out := fs.String("out", "", "posterior CSV path (omit for stdout summary only)")
	metricsDump := fs.String("metrics-dump", "", `dump Prometheus text metrics to FILE at the end of the run ("-" = stdout)`)
	fs.Parse(args)

	p := core.NewPipeline(*seed, core.WithScale(*scale))
	fmt.Fprintf(stdout, "calibration workflow: %s, %d cells, %d days, scale 1:%d\n",
		*state, *cells, *days, *scale)

	// Span durations (workflow.calibration, sim, calibrate, mcmc.chain, …)
	// land in epi_span_seconds next to the pipeline's transfer and fault
	// series; -metrics-dump writes all of it after the run.
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	ctx = obs.WithTracer(ctx, obs.NewTracer(nil, obs.WithSpanMetrics(reg)))

	res, err := p.RunCalibrationWorkflowCtx(ctx, core.CalibrationConfig{
		State: *state, Cells: *cells, Days: *days, Steps: *steps,
		Chains: *chains, RHatMax: *rhatMax, MinESS: *minESS,
	})
	var convErr *mcmc.ConvergenceError
	if errors.As(err, &convErr) {
		// Gate failed, but the posterior is still attached: report and
		// keep going so the diagnostics below can be inspected.
		fmt.Fprintf(stdout, "WARNING: %v\n", convErr)
	} else if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nsimulated %d prior cells; MCMC acceptance %.2f (%d chains)\n",
		len(res.Sims), res.AcceptRate, *chains)
	coords := []string{"TAU", "SYMP", "SH", "VHI", "σδ", "σε"}
	for k := range res.RHat {
		name := fmt.Sprintf("dim%d", k)
		if k < len(coords) {
			name = coords[k]
		}
		fmt.Fprintf(stdout, "  %-5s split-R̂ %.3f  ESS %.0f\n", name, res.RHat[k], res.ESS[k])
	}
	if !res.Converged {
		fmt.Fprintln(stdout, "  convergence: NOT MET — consider more steps or chains")
	}
	summarize := func(name string, get func(core.Params) float64) {
		prior := make([]float64, len(res.Prior))
		post := make([]float64, len(res.Posterior))
		for i, pr := range res.Prior {
			prior[i] = get(pr)
		}
		for i, pr := range res.Posterior {
			post[i] = get(pr)
		}
		fmt.Fprintf(stdout, "  %-5s prior mean %.3f sd %.3f → posterior mean %.3f sd %.3f\n",
			name, stats.Mean(prior), stats.StdDev(prior), stats.Mean(post), stats.StdDev(post))
	}
	summarize("TAU", func(p core.Params) float64 { return p.TAU })
	summarize("SYMP", func(p core.Params) float64 { return p.SYMP })
	summarize("SH", func(p core.Params) float64 { return p.SHCompliance })
	summarize("VHI", func(p core.Params) float64 { return p.VHICompliance })

	// Figure 15's headline: TAU–SYMP posterior correlation.
	tau := make([]float64, len(res.Posterior))
	symp := make([]float64, len(res.Posterior))
	for i, pr := range res.Posterior {
		tau[i], symp[i] = pr.TAU, pr.SYMP
	}
	corr := stats.Correlation(tau, symp)
	fmt.Fprintf(stdout, "  posterior corr(TAU, SYMP) = %.3f (%s; paper: negative)\n", corr, signOf(corr))

	// Figure 16's check: ground truth inside the emulator band at the MAP.
	if len(res.Posterior) > 0 {
		cov := res.Calibrator.CoverageFraction([]float64{
			res.Posterior[0].TAU, res.Posterior[0].SYMP,
			res.Posterior[0].SHCompliance, res.Posterior[0].VHICompliance,
		})
		fmt.Fprintf(stdout, "  emulator 95%%-band coverage of ground truth: %.0f%%\n", 100*cov)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "tau,symp,sh_compliance,vhi_compliance")
		for _, pr := range res.Posterior {
			fmt.Fprintf(f, "%g,%g,%g,%g\n", pr.TAU, pr.SYMP, pr.SHCompliance, pr.VHICompliance)
		}
		fmt.Fprintf(stdout, "wrote %d posterior configurations to %s\n", len(res.Posterior), *out)
	}
	if *metricsDump != "" {
		w := stdout
		if *metricsDump != "-" {
			f, err := os.Create(*metricsDump)
			if err != nil {
				return fmt.Errorf("-metrics-dump: %w", err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WritePrometheus(w); err != nil {
			return fmt.Errorf("-metrics-dump: %w", err)
		}
	}
	if convErr != nil {
		return convErr // a requested convergence gate failed
	}
	return nil
}

// signOf names the sign of a correlation, so that the report states the
// measured sign beside the paper's.
func signOf(x float64) string {
	switch {
	case x < 0:
		return "negative"
	case x > 0:
		return "positive"
	}
	return "no sign"
}
