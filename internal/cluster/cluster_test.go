package cluster

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
)

// nightly is the canonical all-state prediction night: 12 cells × 51
// regions × 15 replicates (9180 simulations, Table I), intervention
// complexity spread 1–4×, DB bound 16 connections per region.
func nightly(seed uint64) ([]sched.Task, sched.Constraints) {
	w := sched.Workload{Cells: 12, Replicates: 15, Time: sched.DefaultTimeModel(),
		MaxInterventionFactor: 4}
	tasks := w.Tasks(stats.NewRNG(seed))
	return tasks, sched.Constraints{TotalNodes: Bridges().Nodes, DBBound: sched.DefaultDBBounds(16)}
}

func TestTableIIConfig(t *testing.T) {
	b := Bridges()
	if b.Nodes != 720 || b.CPUsPerNode != 2 || b.CoresPerCPU != 14 || b.RAMPerNodeGB != 128 {
		t.Fatalf("Bridges spec wrong: %+v", b)
	}
	// "over 20,000 cores of the remote super-computing cluster".
	if b.TotalCores() != 20160 {
		t.Fatalf("Bridges cores %d want 20160", b.TotalCores())
	}
	r := Rivanna()
	if r.Nodes != 50 || r.CoresPerCPU != 20 || r.RAMPerNodeGB != 384 {
		t.Fatalf("Rivanna spec wrong: %+v", r)
	}
	if r.TotalCores() != 2000 {
		t.Fatalf("Rivanna cores %d want 2000", r.TotalCores())
	}
	if b.Filesystem != "Lustre" || r.Filesystem != "Lustre" {
		t.Fatal("filesystems wrong")
	}
}

func TestNightlyWindow(t *testing.T) {
	w := NightlyWindow()
	if w.Hours() != 10 {
		t.Fatalf("window %d hours want 10 (10pm–8am)", w.Hours())
	}
	if w.Seconds() != 36000 {
		t.Fatalf("window seconds %v", w.Seconds())
	}
	if (Window{StartHour: 9, EndHour: 17}).Hours() != 8 {
		t.Fatal("daytime window wrong")
	}
}

// The Figure 9 reproduction: FFDT-DC ordering under backfill reaches the
// mid-90s; the NFDT-DC level-synchronous runs sit in the 44–56% band.
func TestFig9UtilizationBands(t *testing.T) {
	tasks, c := nightly(1)
	nf, err := sched.NFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := sched.FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	nfExec := ExecuteLevelSync(nf, 0)
	ffExec, err := ExecuteBackfill(ff.Flatten(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nfExec.Utilization < 0.40 || nfExec.Utilization > 0.65 {
		t.Fatalf("NFDT-DC utilization %v outside the paper's 44–56%% band", nfExec.Utilization)
	}
	if ffExec.Utilization < 0.90 {
		t.Fatalf("FFDT-DC utilization %v below the paper's ≈96.7%% regime", ffExec.Utilization)
	}
	if ffExec.Makespan >= nfExec.Makespan {
		t.Fatal("FFDT-DC backfill should finish earlier")
	}
	if len(nfExec.Records) != len(tasks) || len(ffExec.Records) != len(tasks) {
		t.Fatal("not all tasks executed")
	}
}

func TestBackfillRespectsConstraints(t *testing.T) {
	tasks, c := nightly(2)
	ff, _ := sched.FFDTDC(tasks, c)
	res, err := ExecuteBackfill(ff.Flatten(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExecution(res, c, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSyncRespectsConstraints(t *testing.T) {
	tasks, c := nightly(3)
	nf, _ := sched.NFDTDC(tasks, c)
	res := ExecuteLevelSync(nf, 0)
	if err := ValidateExecution(res, c, 0); err != nil {
		t.Fatal(err)
	}
}

// The whole nightly workload must fit the 10-hour window on Bridges —
// the operational requirement the paper's scheduling work exists to meet.
func TestNightlyFitsWindow(t *testing.T) {
	tasks, c := nightly(4)
	ff, _ := sched.FFDTDC(tasks, c)
	deadline := NightlyWindow().Seconds()
	res, err := ExecuteBackfill(ff.Flatten(), c, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstarted) > 0 {
		t.Fatalf("%d tasks missed the 10-hour window (makespan %v)", len(res.Unstarted), res.Makespan)
	}
	if res.Makespan > deadline {
		t.Fatalf("makespan %v exceeds window %v", res.Makespan, deadline)
	}
	if err := ValidateExecution(res, c, deadline); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineDropsTasks(t *testing.T) {
	tasks, c := nightly(5)
	ff, _ := sched.FFDTDC(tasks, c)
	// An absurdly short deadline: almost nothing runs.
	res, err := ExecuteBackfill(ff.Flatten(), c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstarted) == 0 {
		t.Fatal("100-second deadline dropped nothing")
	}
	if len(res.Records)+len(res.Unstarted) != len(tasks) {
		t.Fatalf("task accounting broken: %d + %d != %d", len(res.Records), len(res.Unstarted), len(tasks))
	}
	if err := ValidateExecution(res, c, 100); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSyncDeadline(t *testing.T) {
	tasks, c := nightly(6)
	nf, _ := sched.NFDTDC(tasks, c)
	full := ExecuteLevelSync(nf, 0)
	cut := ExecuteLevelSync(nf, full.Makespan/2)
	if len(cut.Unstarted) == 0 {
		t.Fatal("half-makespan deadline dropped nothing")
	}
	if cut.Makespan > full.Makespan/2+1e-9 {
		t.Fatal("level-sync exceeded deadline")
	}
}

func TestBackfillValidation(t *testing.T) {
	if _, err := ExecuteBackfill(nil, sched.Constraints{TotalNodes: 0}, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := ExecuteBackfill([]sched.Task{{Region: "VA", Nodes: 99, Time: 1}},
		sched.Constraints{TotalNodes: 10}, 0); err == nil {
		t.Error("oversized task accepted")
	}
}

func TestBackfillEmptyWorkload(t *testing.T) {
	res, err := ExecuteBackfill(nil, sched.Constraints{TotalNodes: 10}, 0)
	if err != nil || res.Makespan != 0 || len(res.Records) != 0 {
		t.Fatalf("empty workload mishandled: %+v, %v", res, err)
	}
}

func TestWaitMetrics(t *testing.T) {
	tasks, c := nightly(9)
	ff, _ := sched.FFDTDC(tasks, c)
	res, err := ExecuteBackfill(ff.Flatten(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.meanWait() < 0 || res.meanWait() > res.Makespan {
		t.Fatalf("mean wait %v outside [0, makespan]", res.meanWait())
	}
	if res.maxWait() < res.meanWait() {
		t.Fatal("max wait below mean wait")
	}
	if res.maxWait() >= res.Makespan {
		t.Fatal("a task started at or after the makespan")
	}
	var empty ExecResult
	if empty.meanWait() != 0 || empty.maxWait() != 0 {
		t.Fatal("empty result wait metrics should be 0")
	}
	// Backfill should start tasks earlier on average than level-sync.
	nf, _ := sched.NFDTDC(tasks, c)
	lv := ExecuteLevelSync(nf, 0)
	if res.meanWait() >= lv.meanWait() {
		t.Fatalf("backfill mean wait %v should beat level-sync %v", res.meanWait(), lv.meanWait())
	}
}

func TestBackfillUtilizationNeverExceedsOne(t *testing.T) {
	tasks, c := nightly(7)
	ff, _ := sched.FFDTDC(tasks, c)
	res, err := ExecuteBackfill(ff.Flatten(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization > 1+1e-9 {
		t.Fatalf("utilization %v > 1", res.Utilization)
	}
}

func TestValidateExecutionCatchesOverlap(t *testing.T) {
	res := ExecResult{Records: []TaskRecord{
		{Task: sched.Task{Region: "VA", Nodes: 8, Time: 10}, Start: 0, End: 10},
		{Task: sched.Task{Region: "VA", Nodes: 8, Time: 10}, Start: 5, End: 15},
	}}
	c := sched.Constraints{TotalNodes: 10}
	if err := ValidateExecution(res, c, 0); err == nil {
		t.Fatal("node oversubscription not caught")
	}
	c2 := sched.Constraints{TotalNodes: 100, DBBound: map[string]int{"VA": 1}}
	if err := ValidateExecution(res, c2, 0); err == nil {
		t.Fatal("DB bound violation not caught")
	}
	if err := ValidateExecution(res, sched.Constraints{TotalNodes: 100}, 12); err == nil {
		t.Fatal("deadline violation not caught")
	}
}

// VA-only nights (Figure 9 right): 300 calibration cells on one region.
func TestVAOnlyNightUtilization(t *testing.T) {
	w := sched.Workload{Cells: 300, Replicates: 1, Time: sched.DefaultTimeModel(),
		MaxInterventionFactor: 4}
	all := w.Tasks(stats.NewRNG(8))
	var tasks []sched.Task
	for _, tk := range all {
		if tk.Region == "VA" {
			tasks = append(tasks, tk)
		}
	}
	c := sched.Constraints{TotalNodes: Bridges().Nodes, DBBound: map[string]int{"VA": 180}}
	ff, err := sched.FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteBackfill(ff.Flatten(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.85 {
		t.Fatalf("VA-only utilization %v below the paper's ≈95.5%% regime", res.Utilization)
	}
	if err := ValidateExecution(res, c, 0); err != nil {
		t.Fatal(err)
	}
}

// meanWait returns the average task start time — the queueing delay a
// submitted simulation experiences, the timeliness metric behind the
// paper's "reducing the time span required to execute a given set of
// jobs".
func (r *ExecResult) meanWait() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	s := 0.0
	for _, rec := range r.Records {
		s += rec.Start
	}
	return s / float64(len(r.Records))
}

// maxWait returns the longest start delay.
func (r *ExecResult) maxWait() float64 {
	max := 0.0
	for _, rec := range r.Records {
		if rec.Start > max {
			max = rec.Start
		}
	}
	return max
}
