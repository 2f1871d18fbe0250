package core

// This file is the recovery layer of the nightly pipeline: the paper's
// production nights on Bridges hit node failures, database-connection
// exhaustion and transfer stalls inside the hard 10pm–8am window, and the
// team monitored and restarted work by hand. Here that loop is automated
// and deterministic: failed tasks are requeued with exponential backoff and
// rescheduled via FFDT-DC into the remaining window; transfers retry with
// jittered backoff through the ledger; and when the window cannot absorb
// every retry the night degrades gracefully by shedding replicates, lowest
// priority first, reporting exactly what was dropped.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// RecoveryPolicy tunes the nightly retry/requeue/shed behaviour. Zero
// fields take the DefaultRecoveryPolicy values; a negative MaxRetries
// disables requeueing entirely (every failure sheds).
type RecoveryPolicy struct {
	// MaxRetries is the per-task requeue budget.
	MaxRetries int
	// BackoffBase is the wait in seconds before a task's first retry.
	BackoffBase float64
	// BackoffFactor multiplies the backoff on every further attempt.
	BackoffFactor float64
	// BackoffJitterFrac spreads each backoff multiplicatively by
	// [1, 1+frac) so requeued tasks do not re-collide.
	BackoffJitterFrac float64
	// Transfer bounds site-to-site transfer retries.
	Transfer transfer.RetryPolicy
}

// DefaultRecoveryPolicy returns the production-shaped defaults: three
// requeues with 2-minute doubling jittered backoff, five transfer attempts.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		MaxRetries:        3,
		BackoffBase:       120,
		BackoffFactor:     2,
		BackoffJitterFrac: 0.5,
		Transfer:          transfer.DefaultRetryPolicy(),
	}
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	d := DefaultRecoveryPolicy()
	switch {
	case p.MaxRetries == 0:
		p.MaxRetries = d.MaxRetries
	case p.MaxRetries < 0:
		p.MaxRetries = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = d.BackoffFactor
	}
	if p.BackoffJitterFrac <= 0 {
		p.BackoffJitterFrac = d.BackoffJitterFrac
	}
	return p
}

// taskID identifies a task across requeues (sched.Task carries the sampled
// time, which stays fixed for a retried task, but identity is the triple).
type taskID struct {
	Region          string
	Cell, Replicate int
}

func tid(t sched.Task) taskID { return taskID{t.Region, t.Cell, t.Replicate} }

// byImportance orders tasks for shedding decisions, most important first:
// replicate 0 of a cell carries the ensemble's signal, so low replicate
// indices outrank high ones; among equals a longer task outranks a shorter
// one (more sunk work to redo); region/cell break ties for determinism.
func byImportance(a, b sched.Task) int {
	if c := cmp.Compare(a.Replicate, b.Replicate); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Time, a.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Region, b.Region); c != 0 {
		return c
	}
	return cmp.Compare(a.Cell, b.Cell)
}

// retryItem is a requeued task waiting out its backoff.
type retryItem struct {
	task       sched.Task
	eligibleAt float64
}

// runNightRounds executes one night under the fault model with the
// recovery policy: round 1 runs the full workload under the configured
// heuristic; every later round reschedules the eligible retries via
// FFDT-DC + backfill into the remaining window. The merged ExecResult
// spans all rounds; failure/retry/shed accounting lands in the report.
// With a nil fault model this is exactly one failure-free round — the
// bit-for-bit baseline. Cancelling ctx returns ctx.Err(): it is checked
// before each round is packed, and the backfill executor checks it as it
// starts tasks. tried holds the attempts each task consumed on earlier
// nights of a campaign (nil for a single night): fault draws number a
// task's attempts from there, and the night's own attempts are added to it
// before returning.
func (p *Pipeline) runNightRounds(ctx context.Context, cfg NightConfig, fm *faults.Model, tasks []sched.Task,
	tried map[taskID]int, constraints sched.Constraints, deadline float64, report *NightReport) (cluster.ExecResult, error) {

	if err := ctx.Err(); err != nil {
		return cluster.ExecResult{}, err
	}
	pol := cfg.Recovery.withDefaults()
	attempts := map[taskID]int{}
	var inj cluster.Injector
	if fm != nil {
		inj = func(t sched.Task) faults.TaskFault {
			id := tid(t)
			return fm.Task(t.Region, t.Cell, t.Replicate, tried[id]+attempts[id])
		}
	}

	shed := func(t sched.Task, counter *int) {
		*counter++
		report.Shed = append(report.Shed, t)
		obs.Event(ctx, "task.shed",
			obs.String("region", t.Region),
			obs.Int("cell", int64(t.Cell)),
			obs.Int("replicate", int64(t.Replicate)))
	}

	// backfillRound packs with FFDT-DC and executes with backfill from
	// startAt. It yields the processor before each phase: a night is a few
	// milliseconds of allocation-heavy work on one goroutine with no
	// blocking call, and a concurrent GC mark phase that finds no idle P
	// otherwise waits for the 10 ms forced preemption while a night or two
	// of allocation piles onto the next heap goal (measured on night-batch:
	// peak RSS 21–30 MB without the yields, 17.5 MB with them).
	backfillRound := func(rctx context.Context, tasks []sched.Task, startAt float64) (cluster.ExecResult, error) {
		runtime.Gosched()
		if err := rctx.Err(); err != nil {
			return cluster.ExecResult{}, err
		}
		s, err := sched.FFDTDC(tasks, constraints)
		if err != nil {
			return cluster.ExecResult{}, err
		}
		runtime.Gosched()
		return cluster.ExecuteBackfillOpts(s.Flatten(), constraints,
			cluster.ExecOptions{Deadline: deadline, StartAt: startAt, Injector: inj, Ctx: rctx})
	}

	// Round 1: the full workload under the configured heuristic.
	var merged cluster.ExecResult
	rctx, rsp := obs.StartSpan(ctx, "sim", obs.Int("round", 1))
	switch cfg.Heuristic {
	case "", "FFDT-DC":
		var err error
		if merged, err = backfillRound(rctx, tasks, 0); err != nil {
			rsp.End()
			return cluster.ExecResult{}, err
		}
	case "NFDT-DC":
		s, err := sched.NFDTDC(tasks, constraints)
		if err != nil {
			rsp.End()
			return cluster.ExecResult{}, err
		}
		merged = cluster.ExecuteLevelSyncOpts(s, cluster.ExecOptions{Deadline: deadline, Injector: inj, Ctx: rctx})
	default:
		rsp.End()
		return cluster.ExecResult{}, fmt.Errorf("core: unknown heuristic %q", cfg.Heuristic)
	}
	obs.Event(rctx, "task.placed", obs.Int("count", int64(len(merged.Records))))
	rsp.SetAttr(obs.Int("placed", int64(len(merged.Records))), obs.Int("failed", int64(len(merged.Failed))))
	rsp.End()
	report.Rounds = 1
	// A task completes at most once across rounds, so the merged records
	// are sized for the whole workload here and never regrow.
	merged.Records = slices.Grow(merged.Records, len(tasks)-len(merged.Records))

	// processFailures books each failure and either requeues the task with
	// jittered exponential backoff or sheds it (retry budget spent, or the
	// backoff pushes it past the point where it could still finish).
	var deferred []retryItem
	processFailures := func(failed []cluster.FaultRecord) {
		for _, f := range failed {
			switch f.Kind {
			case faults.Crash:
				report.Crashes++
			case faults.DBRefusal:
				report.DBRefusals++
			}
			obs.Event(ctx, "fault.injected",
				obs.String("kind", f.Kind.String()),
				obs.String("region", f.Task.Region),
				obs.Int("cell", int64(f.Task.Cell)),
				obs.Int("replicate", int64(f.Task.Replicate)),
				obs.Int("attempt", int64(attempts[tid(f.Task)])))
			id := tid(f.Task)
			a := attempts[id] + 1 // attempts consumed so far
			attempts[id] = a
			if a > pol.MaxRetries {
				shed(f.Task, &report.ShedRetryExhausted)
				continue
			}
			backoff := pol.BackoffBase
			for i := 1; i < a; i++ {
				backoff *= pol.BackoffFactor
			}
			backoff *= 1 + pol.BackoffJitterFrac*fm.Jitter(f.Task.Region, f.Task.Cell, f.Task.Replicate, a)
			eligible := f.At + backoff
			if eligible+f.Task.Time > deadline {
				shed(f.Task, &report.ShedWindow)
				continue
			}
			report.Retries++
			obs.Event(ctx, "task.retried",
				obs.String("region", f.Task.Region),
				obs.Int("cell", int64(f.Task.Cell)),
				obs.Int("replicate", int64(f.Task.Replicate)),
				obs.Int("attempt", int64(a)),
				obs.Float("eligible_at", eligible))
			deferred = append(deferred, retryItem{task: f.Task, eligibleAt: eligible})
		}
	}
	processFailures(merged.Failed)
	now := merged.Makespan

	for len(deferred) > 0 {
		if err := ctx.Err(); err != nil {
			return cluster.ExecResult{}, err
		}
		// Next scheduling point: the cluster has drained the previous
		// round, and at least one retry must have served its backoff.
		minEligible := math.Inf(1)
		for _, r := range deferred {
			if r.eligibleAt < minEligible {
				minEligible = r.eligibleAt
			}
		}
		if minEligible > now {
			now = minEligible
		}
		if now >= deadline {
			for _, r := range deferred {
				shed(r.task, &report.ShedWindow)
			}
			break
		}
		var admitted []sched.Task
		rest := deferred[:0]
		for _, r := range deferred {
			if r.eligibleAt <= now {
				admitted = append(admitted, r.task)
			} else {
				rest = append(rest, r)
			}
		}
		deferred = rest

		// Admission control: the remaining window holds at most
		// (deadline − now) × nodes node-seconds. While the admitted work
		// exceeds that budget, shed the least important task — this is
		// the "degrade gracefully, lowest-priority replicates first" rule.
		slices.SortStableFunc(admitted, byImportance)
		budget := (deadline - now) * float64(constraints.TotalNodes)
		total := 0.0
		for _, t := range admitted {
			total += t.Time * float64(t.Nodes)
		}
		for len(admitted) > 0 && total > budget {
			last := admitted[len(admitted)-1]
			total -= last.Time * float64(last.Nodes)
			shed(last, &report.ShedWindow)
			admitted = admitted[:len(admitted)-1]
		}
		if len(admitted) == 0 {
			continue
		}

		// Reschedule via FFDT-DC into the remaining window — the recovery
		// path always uses the first-fit packing, whatever heuristic ran
		// round 1.
		rctx, rsp := obs.StartSpan(ctx, "sim",
			obs.Int("round", int64(report.Rounds+1)), obs.Float("start_at", now))
		exec, err := backfillRound(rctx, admitted, now)
		if err != nil {
			rsp.End()
			return cluster.ExecResult{}, err
		}
		obs.Event(rctx, "task.placed", obs.Int("count", int64(len(exec.Records))))
		rsp.SetAttr(obs.Int("placed", int64(len(exec.Records))), obs.Int("failed", int64(len(exec.Failed))))
		rsp.End()
		report.Rounds++
		merged.Records = append(merged.Records, exec.Records...)
		merged.Failed = append(merged.Failed, exec.Failed...)
		merged.BusyNodeSeconds += exec.BusyNodeSeconds
		merged.WastedNodeSeconds += exec.WastedNodeSeconds
		if exec.Makespan > merged.Makespan {
			merged.Makespan = exec.Makespan
		}
		// A retry the executor could not start is a retry the window
		// could not absorb.
		for _, t := range exec.Unstarted {
			shed(t, &report.ShedWindow)
		}
		processFailures(exec.Failed)
		if exec.Makespan > now {
			now = exec.Makespan
		}
	}

	// Report shed work lowest-priority first, deterministically.
	slices.SortStableFunc(report.Shed, func(a, b sched.Task) int { return byImportance(b, a) })
	if merged.Makespan > 0 && constraints.TotalNodes > 0 {
		merged.Utilization = merged.BusyNodeSeconds / (merged.Makespan * float64(constraints.TotalNodes))
	}
	// Recovered = completed tasks that had at least one failed attempt —
	// what the requeue machinery actually saved.
	for _, r := range merged.Records {
		if attempts[tid(r.Task)] > 0 {
			report.Recovered++
		}
	}
	if p.FaultCounters != nil {
		p.FaultCounters.Recovered.Add(int64(report.Recovered))
		p.FaultCounters.Shed.Add(int64(len(report.Shed)))
	}
	if tried != nil {
		for id, a := range attempts {
			tried[id] += a
		}
	}
	return merged, nil
}
