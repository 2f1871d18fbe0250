// National metapopulation forecast — the paper's case study 2: county-level
// SEIR dynamics calibrated by direct-simulation MCMC, projected under the
// five social-distancing scenarios the case study models (one worst case
// plus {two end dates} × {two transmissibility reductions}).
//
//	go run ./examples/national_forecast
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/metapop"
	"repro/internal/surveillance"
	"repro/internal/synthpop"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(_ context.Context, stdout io.Writer) error {
	st, err := synthpop.StateByCode("VA")
	if err != nil {
		return err
	}
	model, err := metapop.NewFromState(st, 0.85)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "metapopulation SEIR: %s, %d counties, gravity commuting coupling\n",
		st.Name, len(model.Counties))

	// Ground truth through day 80 (the calibration window).
	truthCfg := surveillance.DefaultConfig(3)
	truth, err := surveillance.GenerateState(st, truthCfg)
	if err != nil {
		return err
	}
	train := truth.TruncateTo(80)

	// Calibrate transmissibility and detection (Appendix E: per-county
	// Gaussian likelihood with sd = 20% of daily counts, uniform priors,
	// Metropolis updates).
	seeds := []metapop.Seed{{CountyIndex: 0, Infectious: 20}}
	res, err := model.Calibrate(train, metapop.CalibConfig{
		BetaLo: 0.15, BetaHi: 0.9,
		DetectLo: 0.05, DetectHi: 0.5,
		Days: 80, Seeds: seeds,
		Steps: 400, BurnIn: 400, Seed: 9,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "calibrated: MAP beta=%.3f detect=%.3f (R0=%.2f), acceptance %.2f, %d posterior draws\n",
		res.MAP.Beta, res.MAP.Detect, res.MAP.R0(), res.AcceptRate, len(res.Posterior))

	// The five scenarios of the case study: worst case (no distancing)
	// and intense social distancing from day 54 (March 15) with two end
	// dates (April 30 ≈ day 100, June 10 ≈ day 141) × two reductions
	// (25%, 50%).
	horizon := 200
	scenarios := []struct {
		name string
		sd   []metapop.Scenario
	}{
		{"worst-case (no distancing)", nil},
		{"SD to Apr 30, -25%", []metapop.Scenario{{Name: "sd", Start: 54, End: 100, Factor: 0.75}}},
		{"SD to Apr 30, -50%", []metapop.Scenario{{Name: "sd", Start: 54, End: 100, Factor: 0.50}}},
		{"SD to Jun 10, -25%", []metapop.Scenario{{Name: "sd", Start: 54, End: 141, Factor: 0.75}}},
		{"SD to Jun 10, -50%", []metapop.Scenario{{Name: "sd", Start: 54, End: 141, Factor: 0.50}}},
	}
	// Thin the posterior for the ensemble runs.
	post := res.Posterior
	if len(post) > 30 {
		thin := make([]metapop.Params, 0, 30)
		for i := 0; i < len(post) && len(thin) < 30; i += len(post) / 30 {
			thin = append(thin, post[i])
		}
		post = thin
	}
	fmt.Fprintf(stdout, "\nprojections to day %d (cumulative confirmed, median [95%% band]):\n", horizon)
	for _, sc := range scenarios {
		lo, med, hi, err := model.PredictBand(post, horizon, seeds, sc.sd)
		if err != nil {
			return err
		}
		last := horizon - 1
		fmt.Fprintf(stdout, "  %-28s %9.0f [%9.0f, %9.0f]\n", sc.name, med[last], lo[last], hi[last])
	}
	fmt.Fprintln(stdout, "\n(stronger and longer distancing lowers the final count; lifting")
	fmt.Fprintln(stdout, " early trades near-term relief for a larger eventual epidemic)")
	return nil
}
