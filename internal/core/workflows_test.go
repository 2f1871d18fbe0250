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
	// Band ordering and monotonicity (cumulative).
	for d := 0; d < 60; d++ {
		if out.Confirmed.Lo[d] > out.Confirmed.Median[d] || out.Confirmed.Median[d] > out.Confirmed.Hi[d] {
			t.Fatalf("confirmed band inverted at day %d", d)
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
	// County products cover the state's counties.
	if len(out.CountyMedian) < 10 {
		t.Fatalf("only %d county forecasts", len(out.CountyMedian))
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
