// Virginia calibration — the paper's case study 3 (and Figures 15–17):
// calibrate the agent-based model for Virginia against cumulative confirmed
// case counts, then predict the next eight weeks with a 95% band.
//
// The workflow mirrors the paper exactly: a 100-configuration Latin
// hypercube prior over (TAU, SYMP, SH compliance, VHI compliance) with SC
// at 100% compliance; EpiHiper simulation of every prior cell; Bayesian
// calibration through a pη=5 GP emulator; 100 posterior configurations;
// and a re-simulated posterior ensemble for the forecast.
//
//	go run ./examples/virginia_calibration
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	p := core.NewPipeline(2020, core.WithScale(20000))

	fmt.Println("=== case study 3: calibrating the agent-based model for Virginia ===")
	fmt.Println("prior design: 100 LHS cells over (TAU, SYMP, SH, VHI); SC at 100%")
	cal, err := p.RunCalibrationWorkflowCtx(context.Background(), core.CalibrationConfig{
		State:         "VA",
		Cells:         100, // the case study's 100 prior configurations
		Days:          70,  // data through "April 11" ≈ day 70 of the season
		Steps:         3000,
		PosteriorSize: 100,
		// A tight discrepancy budget makes the parameters, not δ,
		// explain the curve — the regime in which Figure 15's negative
		// TAU–SYMP correlation appears.
		SigmaDeltaMax: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Figure 15: prior vs posterior parameter distributions ---
	fmt.Println("\n--- Figure 15: prior → posterior ---")
	show := func(name string, get func(core.Params) float64) ([]float64, []float64) {
		prior := make([]float64, len(cal.Prior))
		post := make([]float64, len(cal.Posterior))
		for i, pr := range cal.Prior {
			prior[i] = get(pr)
		}
		for i, pr := range cal.Posterior {
			post[i] = get(pr)
		}
		fmt.Printf("%-5s prior %.3f±%.3f → posterior %.3f±%.3f\n",
			name, stats.Mean(prior), stats.StdDev(prior), stats.Mean(post), stats.StdDev(post))
		return prior, post
	}
	_, postTau := show("TAU", func(p core.Params) float64 { return p.TAU })
	_, postSymp := show("SYMP", func(p core.Params) float64 { return p.SYMP })
	show("SH", func(p core.Params) float64 { return p.SHCompliance })
	show("VHI", func(p core.Params) float64 { return p.VHICompliance })
	fmt.Printf("corr(TAU, SYMP) in posterior: %.3f  (paper: negatively correlated)\n",
		stats.Correlation(postTau, postSymp))

	// --- Figure 16: emulator fit at the posterior mean ---
	mean := core.Params{
		TAU: stats.Mean(postTau), SYMP: stats.Mean(postSymp),
	}
	var shSum, vhiSum float64
	for _, pr := range cal.Posterior {
		shSum += pr.SHCompliance
		vhiSum += pr.VHICompliance
	}
	mean.SHCompliance = shSum / float64(len(cal.Posterior))
	mean.VHICompliance = vhiSum / float64(len(cal.Posterior))
	theta := []float64{mean.TAU, mean.SYMP, mean.SHCompliance, mean.VHICompliance}
	cov := cal.Calibrator.PredictiveCoverage(theta, cal.MeanSigmaDelta, cal.MeanSigmaEps)
	fmt.Printf("\n--- Figure 16: predictive 95%% band covers %.0f%% of the ground truth ---\n", 100*cov)
	fmt.Printf("    (σδ=%.3f, σε=%.3f in log-case space)\n", cal.MeanSigmaDelta, cal.MeanSigmaEps)

	// --- Figure 17: eight-week forecast from the posterior ensemble ---
	fmt.Println("\n--- Figure 17: 8-week forecast of cumulative confirmed cases ---")
	nCfg := 8 // re-simulate a subset of posterior configs with replicates
	configs := cal.Posterior
	if len(configs) > nCfg {
		stride := len(configs) / nCfg
		sub := make([]core.Params, 0, nCfg)
		for i := 0; i < len(configs) && len(sub) < nCfg; i += stride {
			sub = append(sub, configs[i])
		}
		configs = sub
	}
	pred, err := p.RunPredictionWorkflowCtx(context.Background(), core.PredictionConfig{
		State: "VA", Configs: configs, Replicates: 5,
		Days: 70 + 56, // history + 8 weeks
	})
	if err != nil {
		log.Fatal(err)
	}
	f := pred.Confirmed
	peakHi := 0.0
	for _, v := range f.Hi {
		if v > peakHi {
			peakHi = v
		}
	}
	fmt.Println("week  median [95% band]")
	for w := 0; w < 8; w++ {
		d := 70 + (w+1)*7 - 1
		bar := ""
		if peakHi > 0 {
			bar = strings.Repeat("▒", int(f.Median[d]*40/peakHi))
		}
		fmt.Printf("  +%d   %6.0f [%6.0f, %6.0f] %s\n", w+1, f.Median[d], f.Lo[d], f.Hi[d], bar)
	}
	fmt.Printf("\n(scaled 1:%d — multiply by %d for real-population terms)\n", p.Scale, p.Scale)
}
