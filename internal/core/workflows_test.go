package core

import (
	"context"
	"testing"

	"repro/internal/econ"
	"repro/internal/stats"
	"repro/internal/transfer"
)

// calibTestConfig keeps the end-to-end calibration fast: a small design on
// a coarse network.
func calibTestConfig() CalibrationConfig {
	return CalibrationConfig{
		State: "VA",
		Cells: 24,
		Days:  50,
		Steps: 400, BurnIn: 200,
		PosteriorSize: 30,
		Day:           1,
	}
}

func TestCalibrationWorkflowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end calibration in short mode")
	}
	p := testPipeline(10)
	out, err := p.RunCalibrationWorkflowCtx(context.Background(), calibTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Prior) != 24 || len(out.Sims) != 24 {
		t.Fatalf("prior/sims %d/%d want 24", len(out.Prior), len(out.Sims))
	}
	if len(out.Posterior) == 0 {
		t.Fatal("empty posterior")
	}
	// Posterior parameters stay inside the prior ranges.
	cfg := out.Config
	for _, pr := range out.Posterior {
		if pr.TAU < cfg.TAURange[0] || pr.TAU > cfg.TAURange[1] {
			t.Fatalf("posterior TAU %v outside prior", pr.TAU)
		}
		if pr.SYMP < cfg.SYMPRange[0] || pr.SYMP > cfg.SYMPRange[1] {
			t.Fatalf("posterior SYMP %v outside prior", pr.SYMP)
		}
	}
	// Figure 15: the posterior should be tighter than the prior in TAU.
	priorTau := make([]float64, len(out.Prior))
	for i, pr := range out.Prior {
		priorTau[i] = pr.TAU
	}
	postTau := make([]float64, len(out.Posterior))
	for i, pr := range out.Posterior {
		postTau[i] = pr.TAU
	}
	if stats.StdDev(postTau) >= stats.StdDev(priorTau)*1.05 {
		t.Fatalf("posterior TAU sd %v not tighter than prior %v",
			stats.StdDev(postTau), stats.StdDev(priorTau))
	}
	// Transfer accounting: configs out, summaries back.
	dayOne := map[transfer.Direction]int64{}
	for _, r := range p.Ledger.Records {
		if r.Day == 1 {
			dayOne[r.Direction] += r.Bytes
		}
	}
	if dayOne[transfer.HomeToRemote] == 0 {
		t.Fatal("no config transfer recorded")
	}
	if dayOne[transfer.RemoteToHome] == 0 {
		t.Fatal("no summary transfer recorded")
	}
}

func TestPredictionWorkflowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end prediction in short mode")
	}
	p := testPipeline(11)
	configs := []Params{
		{TAU: 0.2, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4},
		{TAU: 0.24, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.3},
		{TAU: 0.28, SYMP: 0.55, SHCompliance: 0.3, VHICompliance: 0.5},
	}
	out, err := p.RunPredictionWorkflowCtx(context.Background(), PredictionConfig{
		State: "VA", Configs: configs, Replicates: 4, Days: 60, Day: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Sims) != 12 {
		t.Fatalf("%d sims want 12 (3 configs × 4 replicates)", len(out.Sims))
	}
	// The band is the per-day 2.5/50/97.5% quantiles of the replicates'
	// cumulative confirmed series (stats.Quantile sorts a copy of each day).
	series, col := make([][]float64, len(out.Sims)), make([]float64, len(out.Sims))
	for i, s := range out.Sims {
		series[i] = s.ConfirmedCumulative()
	}
	for d := 0; d < 60; d++ {
		for i := range series {
			col[i] = series[i][d]
		}
		if c := out.Confirmed; c.Lo[d] != stats.Quantile(col, 0.025) || c.Median[d] != stats.Quantile(col, 0.5) || c.Hi[d] != stats.Quantile(col, 0.975) {
			t.Fatalf("day %d: confirmed band (%v, %v, %v) is not the per-day quantiles", d, c.Lo[d], c.Median[d], c.Hi[d])
		}
	}
	for d := 1; d < 60; d++ {
		if out.Confirmed.Median[d] < out.Confirmed.Median[d-1] {
			t.Fatal("median cumulative decreased")
		}
	}
	if out.Confirmed.Median[59] <= 0 {
		t.Fatal("no predicted cases")
	}
	// Other targets present; deaths ≤ confirmed.
	if out.Deaths.Median[59] > out.Confirmed.Median[59] {
		t.Fatal("more deaths than confirmed cases")
	}
	net, err := p.Network("VA")
	if err != nil {
		t.Fatal(err)
	}
	if out.Counties != len(net.Counties().FIPS) {
		t.Fatalf("outcome counts %d counties, the network holds %d", out.Counties, len(net.Counties().FIPS))
	}
	if _, err := p.RunPredictionWorkflowCtx(context.Background(), PredictionConfig{State: "VA"}); err == nil {
		t.Fatal("prediction without configs accepted")
	}
}

func TestCounterfactualWorkflowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end counterfactual in short mode")
	}
	p := testPipeline(12)
	cfg := CounterfactualConfig{
		States:     []string{"RI"},
		Replicates: 2,
		Days:       50,
		Base:       Params{TAU: 0.25, SYMP: 0.65},
		// 2 × 2 × 1 = 4 cells (the paper's design is 2 × 3 × 2 = 12).
		VHICompliances: []float64{0.2, 0.8},
		SHDurations:    []int{10, 30},
		SHCompliances:  []float64{0.6},
		SHStart:        10,
		Day:            3,
	}
	out, err := p.RunCounterfactualWorkflowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("%d cells want 4", len(out.Cells))
	}
	// Medical costs per cell; stricter NPIs should not cost more in
	// medical terms than the weakest cell.
	costs := map[string]econ.Tally{}
	for _, cell := range out.Cells {
		var tally econ.Tally
		for _, s := range out.Sims[cell.Index] {
			tt, err := econ.TallyFromSeries(s.Result.Daily, s.Result.Current)
			if err != nil {
				t.Fatal(err)
			}
			tally.Add(tt)
		}
		costs[cell.Name()] = tally
	}
	ranked := econ.CompareScenarios(econ.DefaultCosts(), costs)
	if len(ranked) != 4 {
		t.Fatalf("%d ranked scenarios", len(ranked))
	}
	// The strongest NPI cell (VHI 0.8, 30d SH) should have fewer attended
	// cases than the weakest (VHI 0.2, 10d SH).
	var weak, strong econ.Tally
	for _, cell := range out.Cells {
		if cell.VHICompliance == 0.2 && cell.SHDuration == 10 {
			weak = costs[cell.Name()]
		}
		if cell.VHICompliance == 0.8 && cell.SHDuration == 30 {
			strong = costs[cell.Name()]
		}
	}
	if strong.AttendedCases >= weak.AttendedCases {
		t.Logf("warning: strong NPI (%d attended) not below weak (%d) — small-sample noise",
			strong.AttendedCases, weak.AttendedCases)
	}
	if _, err := p.RunCounterfactualWorkflowCtx(context.Background(), CounterfactualConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := p.RunCounterfactualWorkflowCtx(context.Background(), CounterfactualConfig{States: []string{"RI"}}); err == nil {
		t.Fatal("empty factorial accepted")
	}
}

func TestFactorialCells(t *testing.T) {
	cfg := CounterfactualConfig{
		VHICompliances: []float64{0.3, 0.7},
		SHDurations:    []int{14, 30, 60},
		SHCompliances:  []float64{0.5, 0.9},
	}
	cells := cfg.FactorialCells()
	if len(cells) != 12 {
		t.Fatalf("%d cells want 12 (the paper's 2 × 3 × 2 design)", len(cells))
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Fatal("cell indices not sequential")
		}
		if seen[c.Name()] {
			t.Fatalf("duplicate cell %s", c.Name())
		}
		seen[c.Name()] = true
	}
}

// TestEnsembleBandSortsInPlace holds ensembleBand to the plain per-day
// quantiles of its series (stats.Quantile copies and sorts each day's
// column) and to allocations that do not grow with the horizon: the band
// hands its series to stats.EnsembleQuantiles, which sorts one scratch
// column in place per day.
func TestEnsembleBandSortsInPlace(t *testing.T) {
	r := stats.NewRNG(42)
	curves := map[*SimOutput][]float64{}
	var sims []*SimOutput
	for range 30 {
		s := &SimOutput{}
		c := make([]float64, 200)
		for d := range c {
			c[d] = float64(r.Intn(1000))
		}
		curves[s] = c
		sims = append(sims, s)
	}
	extract := func(s *SimOutput) []float64 { return curves[s] }
	f := ensembleBand(sims, 200, extract)
	col := make([]float64, len(sims))
	for d := 0; d < 200; d++ {
		for i, s := range sims {
			col[i] = curves[s][d]
		}
		if f.Lo[d] != stats.Quantile(col, 0.025) || f.Median[d] != stats.Quantile(col, 0.5) || f.Hi[d] != stats.Quantile(col, 0.975) {
			t.Fatalf("day %d: band (%v, %v, %v) differs from the per-day quantiles", d, f.Lo[d], f.Median[d], f.Hi[d])
		}
	}
	short := testing.AllocsPerRun(20, func() { ensembleBand(sims, 10, extract) })
	long := testing.AllocsPerRun(20, func() { ensembleBand(sims, 200, extract) })
	if long != short {
		t.Errorf("%v allocations over 200 days, %v over 10: ensembleBand allocates per day", long, short)
	}
}
