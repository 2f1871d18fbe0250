// Command forecasthub runs a prediction ensemble and emits the forecast in
// the CDC Forecast Hub's quantile CSV format ("we also provide our weekly
// forecasts to the Centers for Disease Control and Prevention"), then
// scores it against held-out synthetic surveillance with the hub's
// standard metrics (MAE, interval coverage, WIS).
//
// Usage:
//
//	forecasthub -state VA -weeks 4 -out forecast.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/forecast"
	"repro/internal/metapop"
	"repro/internal/stats"
	"repro/internal/surveillance"
	"repro/internal/synthpop"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("forecasthub", flag.ExitOnError)
	state := fs.String("state", "VA", "region postal code")
	weeks := fs.Int("weeks", 4, "forecast horizon in weeks")
	trainDays := fs.Int("train", 120, "surveillance days used for calibration")
	truthMode := fs.String("truth", "model", "model (well-specified ground truth) | synthetic (surveillance generator; exhibits structural misfit)")
	out := fs.String("out", "", "hub-format CSV path (omit for stdout summary)")
	seed := fs.Uint64("seed", 2020, "random seed")
	fs.Parse(args)

	st, err := synthpop.StateByCode(*state)
	if err != nil {
		return err
	}
	// Metapopulation path: cheap enough to calibrate and forecast live.
	model, err := metapop.NewFromState(st, 0.85)
	if err != nil {
		return err
	}
	var truth *surveillance.StateTruth
	switch *truthMode {
	case "synthetic":
		tcfg := surveillance.DefaultConfig(*seed)
		tcfg.SecondWave = false // the single-wave regime the SEIR can represent
		truth, err = surveillance.GenerateState(st, tcfg)
		if err != nil {
			return err
		}
	case "model":
		// Well-specified ground truth: a hidden-parameter stochastic run
		// of the model itself with a mitigation bend — the regime where
		// a calibrated forecaster should achieve nominal coverage.
		hidden := metapop.Params{Beta: 0.42, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.15}
		rng := stats.NewRNG(*seed * 77)
		traj, err := model.RunStochastic(hidden, 210,
			[]metapop.Seed{{CountyIndex: 0, Infectious: 25}},
			[]metapop.Scenario{metapop.MitigationScenario(75, 0.45)}, rng)
		if err != nil {
			return err
		}
		truth = &surveillance.StateTruth{State: st.Code, Days: 210}
		for c := range model.Counties {
			truth.Counties = append(truth.Counties, surveillance.CountySeries{
				FIPS: model.Counties[c].FIPS, Pop: int(model.Counties[c].Pop),
				Daily: traj.NewConfirmed[c],
			})
		}
	default:
		return fmt.Errorf("unknown truth mode %q", *truthMode)
	}
	// Align simulation day 0 with the observed community-spread onset,
	// as the production calibration does.
	onset := truth.OnsetDay(20)
	horizon := *trainDays + 7*(*weeks)
	if onset+horizon > truth.Days {
		return fmt.Errorf("onset %d + horizon %d exceeds surveillance span %d", onset, horizon, truth.Days)
	}
	train := truth.Window(onset, onset+*trainDays)

	// Seed each county from its first two weeks of confirmed counts —
	// "county-level seeding derived from county-level confirmed case
	// counts" — inflated for under-ascertainment.
	var seeds []metapop.Seed
	for c := range train.Counties {
		early := 0.0
		for d := 0; d < 14 && d < train.Days; d++ {
			early += train.Counties[c].Daily[d]
		}
		if early > 0 {
			seeds = append(seeds, metapop.Seed{CountyIndex: c, Infectious: early * 3})
		}
	}
	if len(seeds) == 0 {
		seeds = []metapop.Seed{{CountyIndex: 0, Infectious: 20}}
	}
	// Calibrate transmission, ascertainment and a mitigation factor that
	// kicks in a month after onset — the behavior change that bends the
	// observed curves.
	mitStart := 30
	res, err := model.Calibrate(train, metapop.CalibConfig{
		BetaLo: 0.1, BetaHi: 0.9, DetectLo: 0.02, DetectHi: 0.6,
		Days: *trainDays, Seeds: seeds,
		GammaLo: 0.08, GammaHi: 0.5, CalibrateGamma: true,
		CalibrateMitigation: true, MitigationStart: mitStart,
		MitigationLo: 0.05, MitigationHi: 1,
		Steps: 800, BurnIn: 800, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "calibrated %s on days %d–%d: MAP beta=%.3f detect=%.3f mitigation=%.2f (R0=%.2f)\n",
		st.Code, onset, onset+*trainDays, res.MAP.Beta, res.MAP.Detect, res.MAPMitigation, res.MAP.R0())

	// Posterior ensemble forecasts at each weekly horizon (thin the
	// chain, keeping the mitigation draws aligned).
	post := res.Posterior
	mits := res.Mitigations
	if len(post) > 40 {
		stride := len(post) / 40
		var thinP []metapop.Params
		var thinM []float64
		for i := 0; i < len(post) && len(thinP) < 40; i += stride {
			thinP = append(thinP, post[i])
			if i < len(mits) {
				thinM = append(thinM, mits[i])
			}
		}
		post, mits = thinP, thinM
	}
	res.Mitigations = mits
	// Targets are measured from the onset-aligned axis: sim day d maps to
	// truth day onset+d. Cumulative counts are relative to the onset.
	aligned := truth.Window(onset, truth.Days)
	truthCum := aligned.StateCumulative()
	var card forecast.Scorecard
	var rows []string
	noiseRNG := stats.NewRNG(*seed ^ 0xF0C4)
	fmt.Fprintf(stdout, "\n%-8s %10s %10s %10s %10s %6s\n", "target", "truth", "median", "2.5%", "97.5%", "WIS")
	for w := 1; w <= *weeks; w++ {
		day := *trainDays + 7*w - 1
		var samples []float64
		for pi, p := range post {
			mit := res.MAPMitigation
			if pi < len(res.Mitigations) {
				mit = res.Mitigations[pi]
			}
			scen := []metapop.Scenario{metapop.MitigationScenario(mitStart, mit)}
			cum, err := model.StateCurve(p, day+1, seeds, scen)
			if err != nil {
				return err
			}
			// Predictive, not parametric: the hub target is the
			// *observed* count, so each draw carries the observation
			// model's 20% noise.
			v := cum[day]
			for k := 0; k < 4; k++ {
				samples = append(samples, noiseRNG.Normal(v, 0.2*v))
			}
		}
		f, err := forecast.FromSamples(samples)
		if err != nil {
			return err
		}
		obs := truthCum[day]
		card.Add(f, obs)
		lo, hi := f.Interval(0.05)
		fmt.Fprintf(stdout, "%d wk     %10.0f %10.0f %10.0f %10.0f %6.0f\n",
			w, obs, f.Median(), lo, hi, forecast.WIS(f, obs))
		for _, q := range f.Quantiles {
			rows = append(rows, fmt.Sprintf("%s,%d wk ahead cum case,quantile,%g,%g",
				st.Code, w, q.P, q.V))
		}
	}
	fmt.Fprintf(stdout, "\nscorecard over %d targets: MAE %.0f, mean WIS %.0f, 95%% coverage %.0f%%, 50%% coverage %.0f%%\n",
		card.N, card.MAE(), card.MeanWIS(), 100*card.Coverage95(), 100*card.Coverage50())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "location,target,type,quantile,value")
		for _, r := range rows {
			fmt.Fprintln(f, r)
		}
		fmt.Fprintf(stdout, "wrote %d hub rows to %s\n", len(rows), *out)
	}
	return nil
}
