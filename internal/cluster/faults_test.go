package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/sched"
)

// injectOn builds an injector that fails the given ⟨region, cell⟩ tasks on
// their (single) execution and passes everything else.
func injectOn(verdicts map[[2]interface{}]faults.TaskFault) Injector {
	return func(t sched.Task) faults.TaskFault {
		return verdicts[[2]interface{}{t.Region, t.Cell}]
	}
}

func TestNilInjectorMatchesBaseline(t *testing.T) {
	tasks, c := nightly(21)
	ff, _ := sched.FFDTDC(tasks, c)
	flat := ff.Flatten()
	base, err := ExecuteBackfill(flat, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ExecuteBackfillOpts(flat, c, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, opt) {
		t.Fatal("ExecuteBackfillOpts with zero options diverges from ExecuteBackfill")
	}
	nf, _ := sched.NFDTDC(tasks, c)
	lvBase := ExecuteLevelSync(nf, 0)
	lvOpt := ExecuteLevelSyncOpts(nf, ExecOptions{})
	if !reflect.DeepEqual(lvBase, lvOpt) {
		t.Fatal("ExecuteLevelSyncOpts with zero options diverges from ExecuteLevelSync")
	}
}

func TestBackfillCrashAccounting(t *testing.T) {
	tasks := []sched.Task{
		{Region: "CA", Cell: 0, Nodes: 4, Time: 100},
		{Region: "VA", Cell: 1, Nodes: 4, Time: 80},
		{Region: "WY", Cell: 2, Nodes: 2, Time: 50},
	}
	c := sched.Constraints{TotalNodes: 10}
	inj := injectOn(map[[2]interface{}]faults.TaskFault{
		{"VA", 1}: {Kind: faults.Crash, Frac: 0.5},
	})
	res, err := ExecuteBackfillOpts(tasks, c, ExecOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || len(res.Failed) != 1 {
		t.Fatalf("got %d records, %d failed; want 2, 1", len(res.Records), len(res.Failed))
	}
	f := res.Failed[0]
	if f.Kind != faults.Crash || f.Task.Region != "VA" {
		t.Fatalf("wrong failure: %+v", f)
	}
	// Crashed halfway: held [0, 40) on 4 nodes → 160 wasted node-seconds.
	if f.Start != 0 || f.At != 40 {
		t.Fatalf("crash interval [%g, %g) want [0, 40)", f.Start, f.At)
	}
	if res.WastedNodeSeconds != 160 {
		t.Fatalf("wasted %g want 160", res.WastedNodeSeconds)
	}
	// Completed work only: 4·100 + 2·50 = 500 busy node-seconds.
	if res.BusyNodeSeconds != 500 {
		t.Fatalf("busy %g want 500", res.BusyNodeSeconds)
	}
	if err := ValidateExecution(res, c, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBackfillRefusalHoldsNothing(t *testing.T) {
	tasks := []sched.Task{
		{Region: "CA", Cell: 0, Nodes: 8, Time: 100},
		{Region: "CA", Cell: 1, Nodes: 8, Time: 90},
	}
	// One CA connection: a refused task must not consume it.
	c := sched.Constraints{TotalNodes: 8, DBBound: map[string]int{"CA": 1}}
	inj := injectOn(map[[2]interface{}]faults.TaskFault{
		{"CA", 0}: {Kind: faults.DBRefusal},
	})
	res, err := ExecuteBackfillOpts(tasks, c, ExecOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0].At != res.Failed[0].Start {
		t.Fatalf("refusal should be zero-length: %+v", res.Failed)
	}
	if res.WastedNodeSeconds != 0 {
		t.Fatalf("refusal wasted %g node-seconds", res.WastedNodeSeconds)
	}
	// The surviving task starts immediately — the refusal freed the slot.
	if len(res.Records) != 1 || res.Records[0].Start != 0 {
		t.Fatalf("survivor did not start at 0: %+v", res.Records)
	}
	if err := ValidateExecution(res, c, 0); err != nil {
		t.Fatal(err)
	}
}

// A crashed task frees its nodes at the crash instant, so backfill can
// start queued work earlier than the full runtime would allow.
func TestBackfillCrashFreesNodesEarly(t *testing.T) {
	tasks := []sched.Task{
		{Region: "CA", Cell: 0, Nodes: 8, Time: 100},
		{Region: "VA", Cell: 1, Nodes: 8, Time: 60},
	}
	c := sched.Constraints{TotalNodes: 8}
	inj := injectOn(map[[2]interface{}]faults.TaskFault{
		{"CA", 0}: {Kind: faults.Crash, Frac: 0.25},
	})
	res, err := ExecuteBackfillOpts(tasks, c, ExecOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("want 1 completed, got %d", len(res.Records))
	}
	// CA crashes at t=25; VA backfills then, not at t=100.
	if got := res.Records[0].Start; got != 25 {
		t.Fatalf("VA started at %g, want 25 (crash instant)", got)
	}
	if res.Makespan != 85 {
		t.Fatalf("makespan %g want 85", res.Makespan)
	}
}

func TestLevelSyncFaultsKeepBarrier(t *testing.T) {
	tasks, c := nightly(22)
	nf, _ := sched.NFDTDC(tasks, c)
	crashEverything := func(t sched.Task) faults.TaskFault { return faults.TaskFault{Kind: faults.Crash, Frac: 0.5} }
	base := ExecuteLevelSync(nf, 0)
	res := ExecuteLevelSyncOpts(nf, ExecOptions{Injector: crashEverything})
	// The barrier waits for the packed height regardless of crashes.
	if res.Makespan != base.Makespan {
		t.Fatalf("faults changed the level-sync makespan: %g vs %g", res.Makespan, base.Makespan)
	}
	if len(res.Records) != 0 || len(res.Failed) != len(tasks) {
		t.Fatalf("crash-everything run completed %d, failed %d of %d", len(res.Records), len(res.Failed), len(tasks))
	}
	if res.BusyNodeSeconds != 0 || res.WastedNodeSeconds <= 0 {
		t.Fatalf("busy %g wasted %g", res.BusyNodeSeconds, res.WastedNodeSeconds)
	}
	if err := ValidateExecution(res, c, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStartAtShiftsClock(t *testing.T) {
	tasks := []sched.Task{{Region: "VA", Cell: 0, Nodes: 2, Time: 10}}
	c := sched.Constraints{TotalNodes: 4}
	res, err := ExecuteBackfillOpts(tasks, c, ExecOptions{StartAt: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Start != 500 || res.Records[0].End != 510 || res.Makespan != 510 {
		t.Fatalf("StartAt ignored: %+v makespan %g", res.Records[0], res.Makespan)
	}
	// Deadline applies to the absolute clock, not the offset.
	res, err = ExecuteBackfillOpts(tasks, c, ExecOptions{StartAt: 500, Deadline: 505})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstarted) != 1 {
		t.Fatal("task past the absolute deadline was started")
	}
}

func TestClampFrac(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0.5, 0.5}, {0, 1}, {-1, 1}, {1, 1}, {1.5, 1},
	} {
		if got := clampFrac(tc.in); got != tc.want {
			t.Errorf("clampFrac(%g) = %g want %g", tc.in, got, tc.want)
		}
	}
}

func TestValidateExecutionCatchesFailedOveruse(t *testing.T) {
	// A crashed attempt overlapping a completed task must count as occupancy.
	res := ExecResult{
		Records: []TaskRecord{{Task: sched.Task{Region: "VA", Nodes: 6, Time: 10}, Start: 0, End: 10}},
		Failed: []FaultRecord{
			{Task: sched.Task{Region: "VA", Nodes: 6}, Kind: faults.Crash, Start: 2, At: 8},
		},
	}
	if err := ValidateExecution(res, sched.Constraints{TotalNodes: 10}, 0); err == nil {
		t.Fatal("crashed attempt's node occupancy not validated")
	}
	if err := ValidateExecution(res, sched.Constraints{TotalNodes: 12}, 5); err == nil {
		t.Fatal("crashed attempt holding nodes past the deadline not caught")
	}
	if err := ValidateExecution(res, sched.Constraints{TotalNodes: 12}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestBackfillCancelInsideRun: a cancelled context stops the executor within
// 1 024 started tasks, not at the end of the night. The injector cancels at
// its 100th call, so it may see at most 1 024 more before the executor
// returns context.Canceled.
func TestBackfillCancelInsideRun(t *testing.T) {
	tasks := make([]sched.Task, 20000)
	for i := range tasks {
		tasks[i] = sched.Task{Region: "VA", Cell: i, Nodes: 1, Time: 10}
	}
	c := sched.Constraints{TotalNodes: 64}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	inj := func(sched.Task) faults.TaskFault {
		calls++
		if calls == 100 {
			cancel()
		}
		return faults.TaskFault{}
	}
	_, err := ExecuteBackfillOpts(tasks, c, ExecOptions{Injector: inj, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if calls > 100+1024 {
		t.Fatalf("injector called %d times, %d after the cancel", calls, calls-100)
	}
}
