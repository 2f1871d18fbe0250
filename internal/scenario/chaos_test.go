package scenario_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/scenario/servetest"
)

// TestChaosKillReplicaMidRun is the PR 9 chaos gate: with a fault model
// choosing the victim and the kill moment, one of three replicas dies while
// a full load of jobs is queued and running. The gate asserts the three
// invariants of the ownership protocol:
//
//  1. no lost waiter — every submitted job's Wait returns a result;
//  2. no duplicate execution — no spec is ever running on two replicas at
//     once, and each completes exactly once;
//  3. requeue on a peer — the victim's in-flight work reappears on an up
//     replica (requeues counter advances) rather than failing.
func TestChaosKillReplicaMidRun(t *testing.T) {
	const (
		replicas = 3
		jobs     = 36
	)
	fm := faults.New(faults.Spec{Seed: 2020, TaskCrashProb: 1})
	// The fault model picks the victim and how deep into the run the crash
	// strikes — deterministic per seed, like every fault decision in the
	// repo.
	victim := int(fm.Jitter("chaos-victim", 0, 0, 0) * replicas)
	if victim >= replicas {
		victim = replicas - 1
	}

	var completions sync.Map // ident -> *atomic.Int64
	var liveMu sync.Mutex
	live := map[string]int{}
	var overlap atomic.Bool

	runnerFor := func(rep int) scenario.Runner {
		return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
			ident := specIdent(spec)
			liveMu.Lock()
			live[ident]++
			if live[ident] > 1 {
				overlap.Store(true)
			}
			liveMu.Unlock()
			defer func() {
				liveMu.Lock()
				live[ident]--
				liveMu.Unlock()
			}()
			// Modeled service time, jittered per spec so the victim is
			// killed with a realistic mix of queued and mid-run work.
			d := time.Duration(2+6*fm.Jitter("chaos-svc", spec.Days, rep, 0)) * time.Millisecond
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
			n, _ := completions.LoadOrStore(ident, &atomic.Int64{})
			n.(*atomic.Int64).Add(1)
			return &scenario.Result{}, nil
		}
	}

	goroutinesBefore := runtime.NumGoroutine()
	c := scenario.NewService(scenario.Config{
		Replicas: replicas, Workers: 2, QueueCap: 16, Fingerprint: "chaos",
		DrainGrace:     2 * time.Second,
		RunnerFor:      runnerFor,
		RebalanceEvery: 5 * time.Millisecond,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		servetest.AssertQuiesced(t, c, goroutinesBefore)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		h, err := c.SubmitCtx(context.Background(), predSpec("VA", 10+i), scenario.PriorityNormal)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, h *scenario.Job) {
			defer wg.Done()
			defer h.Release()
			_, errs[i] = h.Wait(ctx)
		}(i, h)
	}

	// Strike once the victim is actually working: kill mid-run, not at an
	// idle boundary.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := c.ReplicaStatus()
		if st.Replicas[victim].Running > 0 && st.Replicas[victim].Queued > 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !c.KillReplica(victim) {
		t.Fatalf("KillReplica(%d) refused", victim)
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d lost: %v", i, err)
		}
	}
	if overlap.Load() {
		t.Error("duplicate execution: a spec ran on two replicas concurrently")
	}
	singles := 0
	completions.Range(func(_, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("a spec completed %d times, want exactly 1", n)
		} else {
			singles++
		}
		return true
	})
	if singles != jobs {
		t.Errorf("%d specs completed exactly once, want %d", singles, jobs)
	}
	st := c.ReplicaStatus()
	if st.Requeues == 0 && st.Steals == 0 {
		t.Error("the kill moved no work: expected requeues (running) or steals (queued) onto peers")
	}
	if st.Requeues == 0 {
		t.Error("no requeue recorded for the victim's in-flight jobs")
	}
	t.Logf("chaos: victim=%d requeues=%d steals=%d dispatched=%d",
		victim, st.Requeues, st.Steals, st.Dispatched)
}
