// Command predict runs the prediction workflow (Figure 5): it reads (or
// synthesizes) calibrated model configurations, simulates each with
// replicates, and prints the state-level forecast with its 95% band — the
// Figure 17 output — and the hospital-capacity check of its upper band.
//
// Usage:
//
//	predict -state VA -configs posterior.csv -replicates 15 -days 90
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/synthpop"
)

func readConfigs(path string) ([]core.Params, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var out []core.Params
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "tau") {
				continue
			}
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad config line %q", line)
		}
		var vals [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, core.Params{TAU: vals[0], SYMP: vals[1], SHCompliance: vals[2], VHICompliance: vals[3]})
	}
	return out, sc.Err()
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	state := fs.String("state", "VA", "region postal code")
	configsPath := fs.String("configs", "", "posterior CSV from the calibrate command")
	replicates := fs.Int("replicates", 15, "replicates per configuration")
	days := fs.Int("days", 90, "forecast horizon")
	scale := fs.Int("scale", 20000, "population scale (1:N)")
	seed := fs.Uint64("seed", 2020, "random seed")
	maxConfigs := fs.Int("max-configs", 8, "cap on configurations simulated")
	fs.Parse(args)

	var configs []core.Params
	if *configsPath != "" {
		var err error
		configs, err = readConfigs(*configsPath)
		if err != nil {
			return err
		}
	} else {
		// Default what-if spread around the CDC best-guess parameters.
		configs = []core.Params{
			{TAU: 0.16, SYMP: 0.65, SHCompliance: 0.6, VHICompliance: 0.5},
			{TAU: 0.18, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5},
			{TAU: 0.20, SYMP: 0.60, SHCompliance: 0.4, VHICompliance: 0.4},
			{TAU: 0.22, SYMP: 0.70, SHCompliance: 0.3, VHICompliance: 0.6},
		}
	}
	if len(configs) > *maxConfigs {
		configs = configs[:*maxConfigs]
	}
	p := core.NewPipeline(*seed, core.WithScale(*scale))
	fmt.Fprintf(stdout, "prediction workflow: %s, %d configs × %d replicates, %d days\n",
		*state, len(configs), *replicates, *days)
	out, err := p.RunPredictionWorkflowCtx(ctx, core.PredictionConfig{
		State: *state, Configs: configs, Replicates: *replicates, Days: *days,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\ncumulative confirmed cases (state level):")
	fmt.Fprintln(stdout, "  day   2.5%     median   97.5%")
	for d := 6; d < *days; d += 7 {
		fmt.Fprintf(stdout, "  %3d  %8.0f %8.0f %8.0f\n",
			d, out.Confirmed.Lo[d], out.Confirmed.Median[d], out.Confirmed.Hi[d])
	}
	last := *days - 1
	fmt.Fprintf(stdout, "\nfinal forecasts (day %d): confirmed %.0f [%.0f, %.0f], hospitalized %.0f, deaths %.0f\n",
		last, out.Confirmed.Median[last], out.Confirmed.Lo[last], out.Confirmed.Hi[last],
		out.Hospitalized.Median[last], out.Deaths.Median[last])
	fmt.Fprintf(stdout, "region: %d counties\n", out.Counties)

	// Capacity analysis for the hospital referral regions: compare the
	// upper-band hospitalization path against AHA-derived capacity.
	st, err := synthpop.StateByCode(*state)
	if err != nil {
		return err
	}
	res := capacity.FromAHA(st)
	// Occupancy approximation: cumulative admissions over a mean stay,
	// scaled back to real-population terms (1:1) for the capacity check.
	occupancy := func(cum []float64, stay int) []float64 {
		occ := make([]float64, len(cum))
		for d := range cum {
			prev := 0.0
			if d >= stay {
				prev = cum[d-stay]
			}
			occ[d] = (cum[d] - prev) * float64(*scale)
		}
		return occ
	}
	demand := capacity.Demand{
		Hospitalized: occupancy(out.Hospitalized.Hi, 7),
		Ventilated:   occupancy(out.Hospitalized.Hi, 7), // conservative: all hospital demand
	}
	for i := range demand.Ventilated {
		demand.Ventilated[i] *= 0.15 // ≈15% of hospitalized need ventilation
	}
	rep, err := capacity.Analyze(res, demand, 0.4)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ncapacity check (worst-case band scaled to 1:1, %s — beds %d, vents %d available to COVID):\n",
		st.Code, int(float64(res.Beds)*rep.AvailableFraction), int(float64(res.Ventilators)*rep.AvailableFraction))
	if rep.HospitalOverflowDays == 0 && rep.VentilatorOverflowDays == 0 {
		fmt.Fprintf(stdout, "  no overflow; peak bed utilization %.0f%% on day %d\n",
			100*rep.HospitalUtilizationPeak, rep.PeakHospitalDay)
	} else {
		fmt.Fprintf(stdout, "  OVERFLOW: %d hospital days (first day %d), %d ventilator days\n",
			rep.HospitalOverflowDays, rep.FirstHospitalOverflow, rep.VentilatorOverflowDays)
	}
	return nil
}
