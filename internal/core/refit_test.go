package core

import (
	"context"
	"testing"
)

func TestRefitCalibrationReusesConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("refit in short mode")
	}
	p := testPipeline(40)
	orig, err := p.RunCalibrationWorkflowCtx(context.Background(), CalibrationConfig{
		State: "VA", Cells: 24, Days: 60,
		Steps: 400, BurnIn: 200, PosteriorSize: 20, Day: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Refit against a shorter (earlier) truth window: no new simulations.
	simsBefore := len(orig.Sims)
	refit, err := p.RefitCalibration(orig, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(refit.Sims) != simsBefore {
		t.Fatal("refit re-simulated")
	}
	if len(refit.Posterior) == 0 {
		t.Fatal("refit produced no posterior")
	}
	if refit.Config.Days != 40 {
		t.Fatalf("refit horizon %d want 40", refit.Config.Days)
	}
	if len(refit.ObsLog) != 40 {
		t.Fatalf("refit observation length %d", len(refit.ObsLog))
	}
	// Prior design carried over unchanged.
	if len(refit.Prior) != len(orig.Prior) {
		t.Fatal("prior design changed")
	}
	for i := range refit.Prior {
		if refit.Prior[i] != orig.Prior[i] {
			t.Fatal("prior parameters changed")
		}
	}
	// Posterior stays in the prior box.
	cfg := orig.Config
	for _, pr := range refit.Posterior {
		if pr.TAU < cfg.TAURange[0] || pr.TAU > cfg.TAURange[1] {
			t.Fatalf("refit posterior TAU %v escaped the prior", pr.TAU)
		}
	}
}

func TestRefitCalibrationValidation(t *testing.T) {
	p := testPipeline(41)
	if _, err := p.RefitCalibration(nil, 10); err == nil {
		t.Fatal("nil outcome accepted")
	}
	if _, err := p.RefitCalibration(&CalibrationOutcome{}, 10); err == nil {
		t.Fatal("empty outcome accepted")
	}
}
