package core

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/surveillance"
	"repro/internal/synthpop"
)

func TestSeedsFromSurveillance(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	cfg := surveillance.DefaultConfig(3)
	cfg.AttackRate = 0.2
	truth, err := surveillance.GenerateState(va, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SeedsFromSurveillance(truth, 120, 14, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds derived")
	}
	total := 0
	for _, s := range seeds {
		if s.Count <= 0 {
			t.Fatalf("non-positive seed count %+v", s)
		}
		if s.Day != 0 {
			t.Fatal("seeds should start at day 0")
		}
		if int(s.CountyFIPS)/1000 != va.FIPS {
			t.Fatal("seed outside state")
		}
		total += s.Count
	}
	// Larger counties (earlier FIPS under the Zipf profile) should carry
	// more seeds than the smallest ones.
	first, last := 0, 0
	for _, s := range seeds {
		if s.CountyFIPS == seeds[0].CountyFIPS {
			first = s.Count
		}
		last = seeds[len(seeds)-1].Count
	}
	if first < last {
		t.Fatalf("seeding not population-ordered: first %d last %d", first, last)
	}
}

func TestSeedsFromSurveillanceScalesDown(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	cfg := surveillance.DefaultConfig(4)
	cfg.AttackRate = 0.2
	truth, _ := surveillance.GenerateState(va, cfg)
	coarse, err := SeedsFromSurveillance(truth, 120, 14, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := SeedsFromSurveillance(truth, 120, 14, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	coarseTotal, fineTotal := 0, 0
	for _, s := range coarse {
		coarseTotal += s.Count
	}
	for _, s := range fine {
		fineTotal += s.Count
	}
	if fineTotal <= coarseTotal {
		t.Fatalf("finer scale should seed more synthetic cases: %d vs %d", fineTotal, coarseTotal)
	}
}

func TestSeedsFromSurveillanceErrors(t *testing.T) {
	if _, err := SeedsFromSurveillance(nil, 0, 14, 1000, 5); err == nil {
		t.Error("nil truth accepted")
	}
	va, _ := synthpop.StateByCode("VA")
	truth, _ := surveillance.GenerateState(va, surveillance.DefaultConfig(5))
	if _, err := SeedsFromSurveillance(truth, 9999, 14, 1000, 5); err == nil {
		t.Error("out-of-range day accepted")
	}
	// Day 0 has no cases anywhere → no resolvable seeds.
	if _, err := SeedsFromSurveillance(truth, 0, 14, 1000000, 1); err == nil {
		t.Error("unresolvable seeding accepted")
	}
}

func TestRunNightsCarryover(t *testing.T) {
	p := testPipeline(20)
	// Shrink the window so one night cannot hold the calibration load.
	p.Window = cluster.Window{StartHour: 0, EndHour: 2}
	spec := TableI()[2] // Calibration: 15300 sims
	reports, err := p.RunNightsCtx(context.Background(), spec, "FFDT-DC", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("expected carryover across nights, got %d reports", len(reports))
	}
	// Conservation: completed tasks across nights = total workload.
	total := reports[0].Tasks
	completed := 0
	for _, r := range reports {
		completed += r.Tasks - r.Unstarted
	}
	if completed != total {
		t.Fatalf("completed %d of %d tasks across nights", completed, total)
	}
	// Every night obeys its window.
	for i, r := range reports {
		if r.Makespan > p.Window.Seconds() {
			t.Fatalf("night %d overran the window", i)
		}
	}
	last := reports[len(reports)-1]
	if last.Unstarted != 0 {
		t.Fatal("final night left tasks unfinished despite nil error")
	}
}

func TestRunNightsExhaustion(t *testing.T) {
	p := testPipeline(21)
	p.Window = cluster.Window{StartHour: 0, EndHour: 1}
	spec := TableI()[2]
	if _, err := p.RunNightsCtx(context.Background(), spec, "FFDT-DC", 1, 3); err == nil {
		t.Fatal("one short night should not finish the calibration workload")
	}
}

func TestRunNightsBadHeuristic(t *testing.T) {
	p := testPipeline(22)
	if _, err := p.RunNightsCtx(context.Background(), TableI()[1], "bogus", 2, 1); err == nil {
		t.Fatal("bogus heuristic accepted")
	}
}
