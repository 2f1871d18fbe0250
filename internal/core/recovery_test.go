package core

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/transfer"
)

// smallSpec is a reduced prediction night (2 cells × 51 regions × 3
// replicates = 306 simulations) so fault-recovery tests stay fast.
func smallSpec() WorkflowSpec {
	return WorkflowSpec{Kind: Prediction, Cells: 2, States: 51, Replicates: 3,
		RawBytesPerSim: 100 * transfer.MB, SummaryBytesPerSim: 300 * transfer.KB}
}

// A zero fault spec must reproduce the failure-free baseline bit for bit:
// the same floats as packing and executing directly, and nothing in the new
// accounting fields.
func TestZeroFaultSpecIsBitForBitBaseline(t *testing.T) {
	p := NewPipeline(31)
	cfg := NightConfig{Spec: smallSpec(), Seed: 31}
	rep, exec, err := p.runNight(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Re-derive the night the pre-fault way.
	w := sched.Workload{Cells: cfg.Spec.Cells, Replicates: cfg.Spec.Replicates,
		Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}
	tasks := w.Tasks(stats.NewRNG(cfg.Seed))
	c, deadline := p.nightConstraints()
	s, err := sched.FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cluster.ExecuteBackfill(s.Flatten(), c, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != base.Makespan {
		t.Fatalf("makespan %v != baseline %v", rep.Makespan, base.Makespan)
	}
	if rep.Utilization != base.Utilization {
		t.Fatalf("utilization %v != baseline %v", rep.Utilization, base.Utilization)
	}
	if len(exec.Records) != len(base.Records) {
		t.Fatalf("%d records vs baseline %d", len(exec.Records), len(base.Records))
	}
	for i := range exec.Records {
		if exec.Records[i] != base.Records[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, exec.Records[i], base.Records[i])
		}
	}
	if rep.Rounds != 1 || rep.Crashes != 0 || rep.DBRefusals != 0 || rep.Retries != 0 ||
		len(rep.Shed) != 0 || rep.WastedNodeSeconds != 0 || rep.TransferRetries != 0 {
		t.Fatalf("failure-free night carries fault accounting: %+v", rep)
	}
	if rep.Completed != rep.Tasks-rep.Unstarted {
		t.Fatalf("completed %d != tasks %d - unstarted %d", rep.Completed, rep.Tasks, rep.Unstarted)
	}
}

func TestFaultNightAccountingAndValidation(t *testing.T) {
	p := NewPipeline(32)
	cfg := NightConfig{
		Spec: smallSpec(), Seed: 32,
		Faults: faults.Spec{Seed: 9, TaskCrashProb: 0.1, DBRefusalProb: 0.05, TransferStallProb: 0.2},
	}
	rep, exec, err := p.runNight(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 && rep.DBRefusals == 0 {
		t.Fatal("fault rates 0.1/0.05 injected nothing")
	}
	if rep.Retries == 0 || rep.Rounds < 2 {
		t.Fatalf("no recovery happened: retries %d rounds %d", rep.Retries, rep.Rounds)
	}
	// Every task ends in exactly one bucket.
	if rep.Completed+rep.Unstarted+len(rep.Shed) != rep.Tasks {
		t.Fatalf("task accounting broken: %d completed + %d unstarted + %d shed != %d tasks",
			rep.Completed, rep.Unstarted, len(rep.Shed), rep.Tasks)
	}
	if len(rep.Shed) != rep.ShedRetryExhausted+rep.ShedWindow {
		t.Fatalf("shed causes don't sum: %d != %d + %d",
			len(rep.Shed), rep.ShedRetryExhausted, rep.ShedWindow)
	}
	// The merged trace across all recovery rounds must still respect the
	// machine: node capacity, DB bounds and the window deadline.
	c, deadline := p.nightConstraints()
	if err := cluster.ValidateExecution(exec, c, deadline); err != nil {
		t.Fatal(err)
	}
	if rep.Crashes > 0 && rep.WastedNodeSeconds <= 0 {
		t.Fatal("crashes wasted no node-time")
	}
}

// The determinism regression of the ISSUE: the same seed must produce a
// byte-identical NightReport across independent runs and across
// GOMAXPROCS=1 vs the default.
func TestFaultyNightReportDeterministic(t *testing.T) {
	cfg := NightConfig{
		Spec: smallSpec(), Seed: 33,
		Faults: faults.Spec{Seed: 5, TaskCrashProb: 0.15, DBRefusalProb: 0.05, TransferStallProb: 0.3},
	}
	run := func() []byte {
		rep, err := NewPipeline(33).RunNightCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := run()
	if second := run(); string(first) != string(second) {
		t.Fatal("same seed, two runs, different reports")
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	if string(first) != string(serial) {
		t.Fatal("GOMAXPROCS=1 changed the report")
	}
}

// Under heavy faults the night degrades by shedding — and what is shed is
// reported lowest priority first (high replicate indices lead).
func TestShedOrderedLowestPriorityFirst(t *testing.T) {
	p := NewPipeline(34)
	cfg := NightConfig{
		Spec: smallSpec(), Seed: 34,
		Faults:   faults.Spec{Seed: 2, TaskCrashProb: 0.6, DBRefusalProb: 0.2},
		Recovery: RecoveryPolicy{MaxRetries: 1},
	}
	rep, err := p.RunNightCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shed) < 2 {
		t.Fatalf("crash prob 0.6 with 1 retry shed only %d tasks", len(rep.Shed))
	}
	for i := 0; i+1 < len(rep.Shed); i++ {
		if byImportance(rep.Shed[i], rep.Shed[i+1]) < 0 {
			t.Fatalf("shed list not lowest-priority-first at %d: %+v before %+v",
				i, rep.Shed[i], rep.Shed[i+1])
		}
	}
	if rep.FitsWindow {
		t.Fatal("a night that shed work claims to fit the window")
	}
}

// MaxRetries < 0 disables requeueing: every failure sheds immediately.
func TestNegativeMaxRetriesDisablesRequeue(t *testing.T) {
	p := NewPipeline(35)
	cfg := NightConfig{
		Spec: smallSpec(), Seed: 35,
		Faults:   faults.Spec{Seed: 3, TaskCrashProb: 0.2},
		Recovery: RecoveryPolicy{MaxRetries: -1},
	}
	rep, err := p.RunNightCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 0 || rep.Rounds != 1 {
		t.Fatalf("requeueing not disabled: retries %d rounds %d", rep.Retries, rep.Rounds)
	}
	if rep.Crashes == 0 || rep.ShedRetryExhausted != rep.Crashes+rep.DBRefusals {
		t.Fatalf("failures not all shed: %+v", rep)
	}
}

func TestTransferRetriesAccounted(t *testing.T) {
	p := NewPipeline(36)
	cfg := NightConfig{
		Spec: smallSpec(), Seed: 36,
		Faults: faults.Spec{Seed: 8, TransferStallProb: 0.5},
	}
	rep, err := p.RunNightCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two transfers (configs out, summaries back) at stall prob 0.5 under a
	// deterministic hash: this seed stalls at least once.
	if rep.TransferRetries == 0 {
		t.Fatal("stall prob 0.5 retried nothing — adjust the fault seed if the hash changed")
	}
	if rep.Crashes != 0 || rep.DBRefusals != 0 || len(rep.Shed) != 0 {
		t.Fatalf("transfer-only faults leaked into task accounting: %+v", rep)
	}
}

func TestExecuteNightRejectsBadInput(t *testing.T) {
	p := NewPipeline(37)
	if _, err := p.RunNightCtx(context.Background(), NightConfig{Spec: smallSpec(), Heuristic: "LPT"}); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if _, err := p.RunNightCtx(context.Background(), NightConfig{Spec: smallSpec(),
		Faults: faults.Spec{TaskCrashProb: 1.5}}); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

// NFDT-DC nights recover through the same loop: retry rounds always use
// FFDT-DC backfill into the remaining window.
func TestLevelSyncNightRecovers(t *testing.T) {
	p := NewPipeline(38)
	cfg := NightConfig{
		Spec: smallSpec(), Heuristic: "NFDT-DC", Seed: 38,
		Faults: faults.Spec{Seed: 4, TaskCrashProb: 0.1},
	}
	rep, exec, err := p.runNight(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 || rep.Rounds < 2 {
		t.Fatalf("no recovery: %+v", rep)
	}
	if rep.Completed+rep.Unstarted+len(rep.Shed) != rep.Tasks {
		t.Fatalf("task accounting broken: %+v", rep)
	}
	c, deadline := p.nightConstraints()
	if err := cluster.ValidateExecution(exec, c, deadline); err != nil {
		t.Fatal(err)
	}
}
