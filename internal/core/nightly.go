package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/transfer"
)

// WorkflowKind identifies a Table I workflow family.
type WorkflowKind int

// The three Table I workflow families.
const (
	Economic WorkflowKind = iota
	Prediction
	Calibration
)

func (k WorkflowKind) String() string {
	switch k {
	case Economic:
		return "Economic"
	case Prediction:
		return "Prediction"
	case Calibration:
		return "Calibration"
	default:
		return fmt.Sprintf("WorkflowKind(%d)", int(k))
	}
}

// WorkflowSpec is a Table I row: the scale of one workflow family.
type WorkflowSpec struct {
	Kind       WorkflowKind
	Cells      int
	States     int
	Replicates int
	// RawBytesPerSim and SummaryBytesPerSim model the 1:1-scale output
	// volume (Table I: raw 3.0TB/9180 ≈ 340MB per simulation for the
	// economic workflow; summaries a few hundred KB).
	RawBytesPerSim     int64
	SummaryBytesPerSim int64
}

// Simulations returns cells × states × replicates.
func (w WorkflowSpec) Simulations() int { return w.Cells * w.States * w.Replicates }

// RawBytes returns the total raw output estimate.
func (w WorkflowSpec) RawBytes() int64 { return int64(w.Simulations()) * w.RawBytesPerSim }

// SummaryBytes returns the total summarized output estimate.
func (w WorkflowSpec) SummaryBytes() int64 { return int64(w.Simulations()) * w.SummaryBytesPerSim }

// TableI returns the paper's three representative workflows with their
// published scales: Economic 12×51×15 (9180 sims, 3.0TB raw / 5.0GB
// summary), Prediction 12×51×15 (9180, 1.0TB / 2.5GB), Calibration
// 300×51×1 (15300, 5.0TB / 4.0GB).
func TableI() []WorkflowSpec {
	return []WorkflowSpec{
		{Kind: Economic, Cells: 12, States: 51, Replicates: 15,
			RawBytesPerSim:     3 * transfer.TB / 9180,
			SummaryBytesPerSim: 5 * transfer.GB / 9180},
		{Kind: Prediction, Cells: 12, States: 51, Replicates: 15,
			RawBytesPerSim:     1 * transfer.TB / 9180,
			SummaryBytesPerSim: 5 * transfer.GB / 2 / 9180},
		{Kind: Calibration, Cells: 300, States: 51, Replicates: 1,
			RawBytesPerSim:     5 * transfer.TB / 15300,
			SummaryBytesPerSim: 4 * transfer.GB / 15300},
	}
}

// NightConfig assembles one night on the remote cluster.
type NightConfig struct {
	Spec WorkflowSpec
	// Heuristic selects the packing: "FFDT-DC" (default) or "NFDT-DC".
	Heuristic string
	// Seed adds night-to-night task-time noise.
	Seed uint64
	Day  int
	// Faults injects the operational failures of the production nights
	// (task/node crashes, DB connection refusals, transfer stalls). The
	// zero value is failure-free and reproduces the baseline bit for bit.
	Faults faults.Spec
	// Recovery tunes requeue/backoff/shed behaviour under faults; zero
	// fields take DefaultRecoveryPolicy.
	Recovery RecoveryPolicy
}

// NightReport summarizes one simulated night (the Figure 9 data points).
type NightReport struct {
	Config      NightConfig
	Tasks       int
	Makespan    float64
	Utilization float64
	// MakespanLB is the FFDT-DC packing's lower bound (max of the area and
	// longest-task bounds from internal/sched) for the night's workload;
	// UtilizationBound is the best utilization any schedule could reach
	// inside the achieved makespan-lower-bound, i.e. busy-work area over
	// (MakespanLB × nodes). Achieved Utilization ≤ UtilizationBound, and the
	// -trace-summary report prints the two side by side.
	MakespanLB       float64
	UtilizationBound float64
	// FitsWindow reports whether everything completed inside 10 hours
	// with nothing shed.
	FitsWindow bool
	Unstarted  int
	// ConfigBytes / SummaryBytes / RawBytes are the night's data volumes
	// at 1:1 scale (Table I / Table II accounting).
	ConfigBytes, SummaryBytes, RawBytes int64

	// Failure/retry/shed accounting (the fault-injection extension). On a
	// failure-free night Completed = Tasks − Unstarted, Rounds = 1 and
	// everything else below is zero.
	Completed  int
	Crashes    int
	DBRefusals int
	// Retries counts requeue events; Rounds counts scheduling passes.
	Retries int
	Rounds  int
	// Recovered counts tasks that completed after at least one failed
	// attempt — the requeue machinery's successes.
	Recovered int
	// Shed lists exactly the work dropped when the window could not
	// absorb the retries, lowest priority first. ShedRetryExhausted and
	// ShedWindow split the count by cause.
	Shed               []sched.Task
	ShedRetryExhausted int
	ShedWindow         int
	// WastedNodeSeconds is node-time consumed by crashed attempts.
	WastedNodeSeconds float64
	// TransferRetries counts stalled-and-retried transfer attempts.
	TransferRetries int
}

// RunNightCtx simulates one night of the given workflow on the remote
// cluster: build the ⟨cell, region⟩ tasks with the empirical time model,
// pack with the chosen heuristic, execute (level-synchronous for NFDT-DC,
// backfilled for FFDT-DC — how the respective production configurations
// ran) under the configured fault model with retry/requeue/shed recovery,
// and account the data movement. Cancellation interrupts the recovery
// rounds between scheduling passes.
func (p *Pipeline) RunNightCtx(ctx context.Context, cfg NightConfig) (*NightReport, error) {
	report, _, err := p.runNight(ctx, cfg, nil)
	return report, err
}

// runNight is the one night every entry point runs: RunNightCtx over the
// given tasks (nil builds the night's workload from cfg), also returning
// the merged execution trace across all recovery rounds so callers can
// replay or validate it (e.g. with cluster.ValidateExecution against the
// night's constraints).
func (p *Pipeline) runNight(ctx context.Context, cfg NightConfig, tasks []sched.Task) (*NightReport, cluster.ExecResult, error) {
	if err := cfg.Faults.Validate(); err != nil {
		return nil, cluster.ExecResult{}, err
	}
	ctx, night := obs.StartSpan(ctx, "night",
		obs.String("workflow", cfg.Spec.Kind.String()),
		obs.String("heuristic", cfg.Heuristic),
		obs.Int("day", int64(cfg.Day)))
	defer night.End()
	_, part := obs.StartSpan(ctx, "partition")
	if tasks == nil {
		tasks = nightWorkload(cfg.Spec).Tasks(stats.NewRNG(cfg.Seed))
	}
	part.SetAttr(obs.Int("tasks", int64(len(tasks))))
	part.End()
	constraints, deadline := p.nightConstraints()
	report := &NightReport{Config: cfg, Tasks: len(tasks)}
	report.MakespanLB, report.UtilizationBound = nightBounds(tasks, constraints.TotalNodes)

	fm := faults.New(cfg.Faults)
	fm.SetCounters(p.FaultCounters)
	exec, err := p.runNightRounds(ctx, cfg, fm, tasks, constraints, deadline, report)
	if err != nil {
		return nil, cluster.ExecResult{}, err
	}
	report.Makespan = exec.Makespan
	report.Utilization = exec.Utilization
	report.Unstarted = len(exec.Unstarted)
	report.Completed = len(exec.Records)
	report.WastedNodeSeconds = exec.WastedNodeSeconds
	report.FitsWindow = len(exec.Unstarted) == 0 && len(report.Shed) == 0 && exec.Makespan <= deadline

	// Data accounting: configs out, summaries back; raw output stays on
	// the remote filesystem (Table II). Each executed task is one
	// simulation (tasks are per-replicate); shed work produces nothing.
	completed := int64(len(exec.Records))
	report.ConfigBytes = int64(len(tasks)) * 580 * transfer.KB
	report.SummaryBytes = completed * cfg.Spec.SummaryBytesPerSim
	report.RawBytes = completed * cfg.Spec.RawBytesPerSim
	if err := p.moveWithRecovery(ctx, cfg, fm, report, transfer.HomeToRemote, "night-configs", report.ConfigBytes); err != nil {
		return nil, cluster.ExecResult{}, err
	}
	if err := p.moveWithRecovery(ctx, cfg, fm, report, transfer.RemoteToHome, "night-summaries", report.SummaryBytes); err != nil {
		return nil, cluster.ExecResult{}, err
	}
	night.SetAttr(
		obs.Int("tasks", int64(report.Tasks)),
		obs.Int("completed", int64(report.Completed)),
		obs.Int("rounds", int64(report.Rounds)),
		obs.Int("shed", int64(len(report.Shed))),
		obs.Float("makespan", report.Makespan),
		obs.Float("utilization", report.Utilization),
		obs.Float("makespan_lb", report.MakespanLB),
		obs.Float("utilization_bound", report.UtilizationBound),
	)
	return report, exec, nil
}

// nightWorkload is a Table I row's ⟨cell, region⟩ workload under the
// empirical time model. Counter-factual and prediction designs sweep
// intervention complexity (up to the ≈4× D2CT factor of Figure 7);
// calibration cells sweep disease parameters on a fixed mitigation
// schedule, so their run times spread far less.
func nightWorkload(spec WorkflowSpec) sched.Workload {
	ivSpread := 4.0
	if spec.Kind == Calibration {
		ivSpread = 1.4
	}
	return sched.Workload{
		Cells:                 spec.Cells,
		Replicates:            spec.Replicates,
		Time:                  sched.DefaultTimeModel(),
		MaxInterventionFactor: ivSpread,
	}
}

// nightConstraints returns the remote cluster's packing constraints and the
// window deadline in seconds.
func (p *Pipeline) nightConstraints() (sched.Constraints, float64) {
	return sched.Constraints{
		TotalNodes: p.Remote.Nodes,
		DBBound:    sched.DefaultDBBounds(p.DBConnBound),
	}, p.Window.Seconds()
}

// nightBounds returns NightReport.MakespanLB and UtilizationBound for a
// task set: the packing lower bound, and the busy-work area over
// (bound × nodes).
func nightBounds(tasks []sched.Task, totalNodes int) (makespanLB, utilizationBound float64) {
	makespanLB = sched.MakespanLowerBound(tasks, totalNodes)
	if makespanLB > 0 && totalNodes > 0 {
		area := 0.0
		for _, t := range tasks {
			area += t.Time * float64(t.Nodes)
		}
		utilizationBound = area / (makespanLB * float64(totalNodes))
	}
	return makespanLB, utilizationBound
}

// moveWithRecovery ships bytes over the ledger: the transfer retries
// stalled attempts with jittered backoff and the retry count lands in the
// report. A failure-free night's nil fault model never stalls. A transfer
// that stalls through the whole retry budget fails the night — the
// morning's products cannot ship.
func (p *Pipeline) moveWithRecovery(ctx context.Context, cfg NightConfig, fm *faults.Model, report *NightReport,
	dir transfer.Direction, label string, bytes int64) error {
	pol := cfg.Recovery.withDefaults()
	_, retries, err := p.Ledger.MoveWithRetry(ctx, cfg.Day, dir, label, bytes, pol.Transfer,
		func(attempt int) (bool, float64) {
			return fm.TransferStall(label, attempt), fm.Jitter(label, 0, 0, attempt)
		})
	report.TransferRetries += retries
	return err
}

// RunNightsCtx runs a campaign of consecutive nights with carryover — the
// resiliency behaviour of the production pipeline. Each night is the night
// RunNightCtx runs, faults and recovery included; the tasks it could not
// start inside its window are resubmitted the next night, on day cfg.Day+1,
// until the workload drains or maxNights is exhausted. Shed work is not
// carried. Cancellation returns the reports of the nights already simulated
// together with ctx.Err().
func (p *Pipeline) RunNightsCtx(ctx context.Context, cfg NightConfig, maxNights int) ([]*NightReport, error) {
	var reports []*NightReport
	var carry []sched.Task
	for range max(maxNights, 1) {
		rep, exec, err := p.runNight(ctx, cfg, carry)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
		if len(exec.Unstarted) == 0 {
			return reports, nil
		}
		carry = exec.Unstarted
		cfg.Day++
	}
	return reports, fmt.Errorf("core: %d tasks still unfinished after %d nights", len(carry), len(reports))
}

// TimelineStep is one task of the multi-day human-in-the-loop cycle of
// Figure 2.
type TimelineStep struct {
	Day       int
	Name      string
	Automated bool
}

// WeeklyTimeline returns the paper's calibration–prediction cycle: model
// configuration on day 0, calibration nights, analyst review, projection
// nights, and the Wednesday delivery of products on day 6.
func WeeklyTimeline() []TimelineStep {
	return []TimelineStep{
		{Day: 0, Name: "update ground truth & model configuration", Automated: false},
		{Day: 0, Name: "generate calibration design (cells)", Automated: true},
		{Day: 0, Name: "transfer configurations to remote cluster", Automated: false},
		{Day: 1, Name: "nightly calibration simulations (10pm–8am)", Automated: true},
		{Day: 1, Name: "aggregate outputs, transfer summaries home", Automated: true},
		{Day: 2, Name: "Bayesian calibration (GP emulator + MCMC)", Automated: true},
		{Day: 2, Name: "analyst review of calibration fit", Automated: false},
		{Day: 3, Name: "generate prediction configurations + what-if scenarios", Automated: false},
		{Day: 4, Name: "nightly prediction simulations (10pm–8am)", Automated: true},
		{Day: 5, Name: "ensemble analysis, county-level products", Automated: true},
		{Day: 5, Name: "domain-expert consistency review", Automated: false},
		{Day: 6, Name: "deliver weekly products to stakeholders (Wednesday)", Automated: false},
	}
}
