package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/synthpop"
)

func nightlyTasks(t testing.TB, seed uint64, cells, reps int) []Task {
	t.Helper()
	w := Workload{Cells: cells, Replicates: reps, Time: DefaultTimeModel(), GroupReplicates: true}
	return w.Tasks(stats.NewRNG(seed))
}

func bridgesConstraints(bound int) Constraints {
	return Constraints{TotalNodes: 720, DBBound: DefaultDBBounds(bound)}
}

func TestWorkloadSize(t *testing.T) {
	tasks := nightlyTasks(t, 1, 12, 15)
	if len(tasks) != 12*51 {
		t.Fatalf("%d tasks want %d (12 cells × 51 regions, replicates grouped)", len(tasks), 12*51)
	}
	w := Workload{Cells: 12, Replicates: 15, Time: DefaultTimeModel()}
	ungrouped := w.Tasks(stats.NewRNG(1))
	if len(ungrouped) != 12*51*15 {
		t.Fatalf("%d ungrouped tasks want %d (the paper's 9180 simulations)", len(ungrouped), 9180)
	}
}

func TestNodesForRegionCategories(t *testing.T) {
	counts := map[int]int{}
	for _, st := range synthpop.States {
		n := NodesForRegion(st.Population)
		if n != 2 && n != 4 && n != 6 {
			t.Fatalf("region %s got %d nodes", st.Code, n)
		}
		counts[n]++
	}
	if counts[2] == 0 || counts[4] == 0 || counts[6] == 0 {
		t.Fatalf("categories not all used: %v", counts)
	}
	ca, _ := synthpop.StateByCode("CA")
	wy, _ := synthpop.StateByCode("WY")
	if NodesForRegion(ca.Population) != 6 || NodesForRegion(wy.Population) != 2 {
		t.Fatal("CA should be large, WY small")
	}
}

func TestTimeModelReproducesFigure8Range(t *testing.T) {
	tm := DefaultTimeModel()
	ca, _ := synthpop.StateByCode("CA")
	wy, _ := synthpop.StateByCode("WY")
	tCA := tm.Mean(ca.Population, NodesForRegion(ca.Population))
	tWY := tm.Mean(wy.Population, NodesForRegion(wy.Population))
	// Figure 8: state runtimes span ≈100 s (small states) to ≈1400 s.
	if tCA < 600 || tCA > 1400 {
		t.Fatalf("CA time %v outside Figure 8 range", tCA)
	}
	if tWY < 60 || tWY > 300 {
		t.Fatalf("WY time %v outside Figure 8 range", tWY)
	}
	if tCA <= tWY {
		t.Fatal("time not correlated with network size")
	}
	// Interventions inflate time (Figure 7 bottom).
	d2ct := tm
	d2ct.InterventionFactor = 4
	if d2ct.Mean(ca.Population, 6) <= tm.Mean(ca.Population, 6)*2 {
		t.Fatal("intervention factor not applied")
	}
}

func TestNFDTAndFFDTValidSchedules(t *testing.T) {
	tasks := nightlyTasks(t, 2, 12, 15)
	c := bridgesConstraints(4)
	for name, pack := range map[string]func([]Task, Constraints) (*Schedule, error){
		"NFDT-DC": NFDTDC, "FFDT-DC": FFDTDC, "FIFO": FIFO,
	} {
		s, err := pack(tasks, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(tasks, c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.NumTasks() != len(tasks) {
			t.Fatalf("%s scheduled %d of %d tasks", name, s.NumTasks(), len(tasks))
		}
	}
}

// On the static strip-packing metric FFDT-DC never loses to NFDT-DC, and
// under a binding DB constraint it wins strictly: first fit keeps filling
// earlier levels with other regions' tasks after the bound closes a region
// out, while next fit abandons the remaining width. (The execution-level
// Figure 9 comparison — ≈96% vs 44–56% utilization — lives in the cluster
// package, which replays these packings through the Slurm-like executor.)
func TestFFDTBeatsNFDTUnderDBConstraints(t *testing.T) {
	w := Workload{Cells: 12, Replicates: 15, Time: DefaultTimeModel(),
		GroupReplicates: true, MaxInterventionFactor: 4}
	tasks := w.Tasks(stats.NewRNG(3))
	c := bridgesConstraints(2) // tight DB bound: the regime that hurts NFDT
	nf, err := NFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	un, uf := nf.Utilization(), ff.Utilization()
	if uf < un {
		t.Fatalf("FFDT-DC (%v) lost to NFDT-DC (%v)", uf, un)
	}
	if len(ff.Levels) > len(nf.Levels) {
		t.Fatalf("FFDT-DC used more levels (%d) than NFDT-DC (%d)", len(ff.Levels), len(nf.Levels))
	}
	if ff.Makespan() > nf.Makespan() {
		t.Fatal("FFDT-DC should not finish later")
	}
}

func TestSchedulerHandlesUnboundedRegions(t *testing.T) {
	tasks := nightlyTasks(t, 4, 6, 5)
	c := Constraints{TotalNodes: 720} // no DB bounds
	nf, err := NFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Utilization() < nf.Utilization()-1e-9 {
		t.Fatal("FFDT should never lose to NFDT")
	}
	if err := nf.Validate(tasks, c); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleErrors(t *testing.T) {
	c := Constraints{TotalNodes: 4}
	if _, err := NFDTDC([]Task{{Region: "VA", Nodes: 8, Time: 1}}, c); err == nil {
		t.Error("oversized task accepted")
	}
	if _, err := FFDTDC([]Task{{Region: "VA", Nodes: 2, Time: -1}}, c); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := NFDTDC(nil, Constraints{TotalNodes: 0}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := FFDTDC([]Task{{Region: "VA", Nodes: 1, Time: 1}},
		Constraints{TotalNodes: 2, DBBound: map[string]int{"VA": 0}}); err == nil {
		t.Error("zero DB bound accepted")
	}
}

func TestEmptyWorkload(t *testing.T) {
	s, err := NFDTDC(nil, Constraints{TotalNodes: 10})
	if err != nil || s.Makespan() != 0 || s.Utilization() != 0 {
		t.Fatal("empty workload mishandled")
	}
	s2, err := FFDTDC(nil, Constraints{TotalNodes: 10})
	if err != nil || len(s2.Levels) != 0 {
		t.Fatal("empty FFDT mishandled")
	}
}

func TestStartTimesConsistent(t *testing.T) {
	tasks := nightlyTasks(t, 5, 4, 3)
	c := bridgesConstraints(4)
	s, err := FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	placed := s.startTimes()
	if len(placed) != len(tasks) {
		t.Fatalf("%d placements want %d", len(placed), len(tasks))
	}
	levelStart := map[int]float64{}
	for _, p := range placed {
		if prev, ok := levelStart[p.Level]; ok && prev != p.Start {
			t.Fatal("tasks on one level have different starts")
		}
		levelStart[p.Level] = p.Start
		if p.End-p.Start != p.Task.Time {
			t.Fatal("end-start != task time")
		}
	}
	// Levels start sequentially.
	for li := 1; li < len(s.Levels); li++ {
		if levelStart[li] <= levelStart[li-1] {
			t.Fatal("levels not sequential")
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	tasks := []Task{{Region: "VA", Cell: 0, Nodes: 2, Time: 5}}
	c := Constraints{TotalNodes: 4, DBBound: map[string]int{"VA": 1}}
	s, err := FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate a task into the schedule.
	s.Levels[0].Tasks = append(s.Levels[0].Tasks, tasks[0])
	if err := s.Validate(tasks, c); err == nil {
		t.Fatal("duplicated task not caught")
	}
}

func TestSchedulesDeterministic(t *testing.T) {
	tasks := nightlyTasks(t, 6, 12, 15)
	c := bridgesConstraints(3)
	a, _ := FFDTDC(tasks, c)
	b, _ := FFDTDC(tasks, c)
	if a.Makespan() != b.Makespan() || len(a.Levels) != len(b.Levels) {
		t.Fatal("FFDT not deterministic")
	}
}

func TestPackingQuick(t *testing.T) {
	err := quick.Check(func(seed uint16, boundRaw, cellsRaw uint8) bool {
		bound := int(boundRaw%5) + 1
		cells := int(cellsRaw%8) + 1
		tasks := Workload{Cells: cells, Replicates: 2, Time: DefaultTimeModel(), GroupReplicates: true}.
			Tasks(stats.NewRNG(uint64(seed)))
		c := Constraints{TotalNodes: 128, DBBound: DefaultDBBounds(bound)}
		for _, pack := range []func([]Task, Constraints) (*Schedule, error){NFDTDC, FFDTDC} {
			s, err := pack(tasks, c)
			if err != nil {
				return false
			}
			if s.Validate(tasks, c) != nil {
				return false
			}
			if s.Utilization() < 0 || s.Utilization() > 1+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkMatchesTasks(t *testing.T) {
	tasks := nightlyTasks(t, 7, 3, 2)
	want := 0.0
	for _, tk := range tasks {
		want += tk.Time * float64(tk.Nodes)
	}
	c := bridgesConstraints(4)
	s, _ := FFDTDC(tasks, c)
	if got := s.Work(); got < want*(1-1e-12) || got > want*(1+1e-12) {
		t.Fatalf("work %v want %v", got, want)
	}
}

// startTimes returns, for each task (in level order), its level start time.
func (s *Schedule) startTimes() []scheduledTask {
	var out []scheduledTask
	start := 0.0
	for li, l := range s.Levels {
		for _, t := range l.Tasks {
			out = append(out, scheduledTask{Task: t, Level: li, Start: start, End: start + t.Time})
		}
		start += l.Height
	}
	return out
}

// scheduledTask is a task with its placement.
type scheduledTask struct {
	Task  Task
	Level int
	Start float64
	End   float64
}
