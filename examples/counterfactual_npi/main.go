// Counter-factual NPI analysis — the paper's case study 1 (Figure 3,
// "Medical costs of COVID-19"): a factorial design of 2 VHI compliances ×
// 3 lockdown durations × 2 lockdown compliances = 12 cells, each simulated
// with replicates, costed with the medical-cost model.
//
//	go run ./examples/counterfactual_npi
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/econ"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, stdout io.Writer) error {
	p := core.NewPipeline(11, core.WithScale(20000))

	cfg := core.CounterfactualConfig{
		// Two mid-size states stand in for the 51-region national run
		// (scale down the demo; the design structure is identical).
		States:     []string{"VA", "MD"},
		Replicates: 3,
		Days:       100,
		// Calibrated towards R0 ≈ 2.5 (the case study's target).
		Base: core.Params{TAU: 0.2, SYMP: 0.65},
		// The paper's 2 × 3 × 2 factorial design.
		VHICompliances: []float64{0.3, 0.7},
		SHDurations:    []int{30, 60, 90},
		SHCompliances:  []float64{0.5, 0.9},
		SHStart:        15,
	}
	fmt.Fprintf(stdout, "factorial design: %d cells × %d states × %d replicates = %d simulations\n",
		len(cfg.FactorialCells()), len(cfg.States), cfg.Replicates,
		len(cfg.FactorialCells())*len(cfg.States)*cfg.Replicates)

	out, err := p.RunCounterfactualWorkflowCtx(ctx, cfg)
	if err != nil {
		return err
	}

	// Aggregate each cell's health outcomes and apply the cost model.
	costs := econ.DefaultCosts()
	tallies := map[string]econ.Tally{}
	for _, cell := range out.Cells {
		var t econ.Tally
		for _, s := range out.Sims[cell.Index] {
			tt, err := econ.TallyFromSeries(s.Result.Daily, s.Result.Current)
			if err != nil {
				return err
			}
			t.Add(tt)
		}
		tallies[cell.Name()] = t
	}
	fmt.Fprintln(stdout, "\nscenario                          attended  hosp-days  vent-days  deaths   medical cost (1:1 scale)")
	for _, sc := range econ.CompareScenarios(costs, tallies) {
		full := econ.PerCapita(sc.Dollars, p.Scale) / float64(cfg.Replicates) / float64(len(cfg.States))
		fmt.Fprintf(stdout, "%-33s %8d %10d %10d %7d   $%.1fM\n",
			sc.Scenario, sc.Tally.AttendedCases, sc.Tally.HospitalDays,
			sc.Tally.VentilatorDays, sc.Tally.Deaths, full/1e6)
	}
	fmt.Fprintln(stdout, "\n(stronger/longer NPIs reduce medical costs; the paper's companion")
	fmt.Fprintln(stdout, " study [9] weighs these against the GDP impact of staying closed)")
	return nil
}
