package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
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

// A two-hour window cannot hold the 15 300-task calibration load, so the
// campaign carries window misses across nights. Every night accounts for
// its tasks, the next night starts from exactly what it left unstarted,
// and the faulted campaign settles every task too.
func TestRunNightsCarryover(t *testing.T) {
	// The failure-free campaign's per-night Tasks, Unstarted and
	// Makespan/Utilization float bits, recorded when carryover nights ran a
	// failure-free loop of their own.
	pins := []struct {
		tasks, unstarted      int
		makespan, utilization uint64
	}{
		{15300, 13318, 0x40bc1fffe2dc717b, 0x3feff443ff634d5d},
		{13318, 10721, 0x40bc1ffdeebb9a3a, 0x3fefd5e82bfa7db7},
		{10721, 6044, 0x40bc1ffec9851c39, 0x3fefcc1b91614691},
		{6044, 0, 0x40b216e4a0785acb, 0x3fec72ec8ec4ae28},
	}
	for _, fs := range []faults.Spec{
		{},
		{Seed: 5, TaskCrashProb: 0.05, DBRefusalProb: 0.025, TransferStallProb: 0.025},
	} {
		p := testPipeline(20)
		p.Window = cluster.Window{StartHour: 0, EndHour: 2}
		reports, err := p.RunNightsCtx(context.Background(),
			NightConfig{Spec: TableI()[2], Heuristic: "FFDT-DC", Seed: 3, Faults: fs}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) < 2 {
			t.Fatalf("faults %+v: expected carryover across nights, got %d reports", fs, len(reports))
		}
		settled, failures := 0, 0
		for i, r := range reports {
			if r.Completed+len(r.Shed)+r.Unstarted != r.Tasks {
				t.Fatalf("faults %+v night %d: completed %d + shed %d + unstarted %d != %d tasks",
					fs, i, r.Completed, len(r.Shed), r.Unstarted, r.Tasks)
			}
			if r.Rounds < 1 {
				t.Fatalf("faults %+v night %d: %d rounds", fs, i, r.Rounds)
			}
			if i > 0 && r.Tasks != reports[i-1].Unstarted {
				t.Fatalf("faults %+v night %d: %d tasks, night %d left %d unstarted",
					fs, i, r.Tasks, i-1, reports[i-1].Unstarted)
			}
			if r.Config.Day != i {
				t.Fatalf("faults %+v night %d ran on day %d", fs, i, r.Config.Day)
			}
			if r.Makespan > p.Window.Seconds() {
				t.Fatalf("faults %+v night %d overran the window", fs, i)
			}
			settled += r.Completed + len(r.Shed)
			failures += r.Crashes + r.DBRefusals
		}
		if total := reports[0].Tasks; settled != total {
			t.Fatalf("faults %+v: settled %d of %d tasks across nights", fs, settled, total)
		}
		if fs.Enabled() {
			if failures == 0 {
				t.Fatal("faulted campaign injected no task failures")
			}
			continue
		}
		if len(reports) != len(pins) {
			t.Fatalf("failure-free campaign ran %d nights, pinned %d", len(reports), len(pins))
		}
		for i, r := range reports {
			w := pins[i]
			if r.Tasks != w.tasks || r.Unstarted != w.unstarted ||
				math.Float64bits(r.Makespan) != w.makespan || math.Float64bits(r.Utilization) != w.utilization {
				t.Fatalf("night %d: tasks %d unstarted %d makespan %#x utilization %#x; pinned %+v",
					i, r.Tasks, r.Unstarted, math.Float64bits(r.Makespan), math.Float64bits(r.Utilization), w)
			}
		}
	}
}

func TestRunNightsExhaustion(t *testing.T) {
	p := testPipeline(21)
	p.Window = cluster.Window{StartHour: 0, EndHour: 1}
	spec := TableI()[2]
	if _, err := p.RunNightsCtx(context.Background(), NightConfig{Spec: spec, Heuristic: "FFDT-DC", Seed: 3}, 1); err == nil {
		t.Fatal("one short night should not finish the calibration workload")
	}
}

func TestRunNightsBadHeuristic(t *testing.T) {
	p := testPipeline(22)
	if _, err := p.RunNightsCtx(context.Background(), NightConfig{Spec: TableI()[1], Heuristic: "bogus", Seed: 1}, 2); err == nil {
		t.Fatal("bogus heuristic accepted")
	}
}
