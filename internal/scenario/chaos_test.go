package scenario_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/scenario/servetest"
)

// chaosFate is what the fault model decides for one job.
type chaosFate int

const (
	fateComplete chaosFate = iota
	fateFail               // the runner crashes partway through its service time
	fateCancel             // the client cancels once the run has started
)

// TestChaosOneQueue is the chaos gate of the one-queue service. A seeded
// fault model decides, per job, whether its runner crashes partway, its
// client cancels it mid-run (by Cancel or by dropping its only interest), or
// it completes; then a Drain whose deadline expires with work still queued
// and running cuts the run short. The gate asserts:
//
//  1. every waiter gets exactly one settlement, and it matches the job's
//     fate (a drain cut may turn any fate into canceled): the service books
//     one terminal state per job, the same ones the waiters saw;
//  2. no spec ever runs twice at once, or more than once at all;
//  3. the drained service holds nothing (servetest.AssertQuiesced).
func TestChaosOneQueue(t *testing.T) {
	const (
		workers = 3
		jobs    = 48
	)
	fm := faults.New(faults.Spec{Seed: 2020, TaskCrashProb: 0.25})
	fates := make([]chaosFate, jobs)
	crashAt := make([]float64, jobs)
	for i := range fates {
		if f := fm.Task("chaos", i, 0, 0); f.Kind == faults.Crash {
			fates[i], crashAt[i] = fateFail, f.Frac
		} else if fm.Jitter("chaos-cancel", i, 0, 0) < 0.25 {
			fates[i] = fateCancel
		}
	}
	// Each spec's Days is 10+i, so the runner recovers i from the spec.
	started := make([]chan struct{}, jobs)
	for i := range started {
		started[i] = make(chan struct{})
	}
	var liveMu sync.Mutex
	live, runs := map[int]int{}, map[int]int{}
	var overlap atomic.Bool
	errCrash := errors.New("chaos: runner crashed")
	runner := func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
		i := spec.Days - 10
		liveMu.Lock()
		live[i]++
		runs[i]++
		if live[i] > 1 {
			overlap.Store(true)
		}
		liveMu.Unlock()
		defer func() {
			liveMu.Lock()
			live[i]--
			liveMu.Unlock()
		}()
		close(started[i])
		// Modeled service time, jittered per spec so the drain deadline
		// strikes a mix of queued and mid-run work.
		d := time.Duration(2+6*fm.Jitter("chaos-svc", i, 0, 0)) * time.Millisecond
		var wait <-chan time.Time // a cancel-fated run waits for its client
		switch fates[i] {
		case fateComplete:
			wait = time.After(d)
		case fateFail:
			wait = time.After(time.Duration(crashAt[i] * float64(d)))
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wait:
		}
		if fates[i] == fateFail {
			return nil, errCrash
		}
		return &scenario.Result{}, nil
	}

	goroutinesBefore := runtime.NumGoroutine()
	c := scenario.NewService(scenario.Config{
		Workers: workers, QueueCap: 2 * jobs, Fingerprint: "chaos",
		DrainGrace: 2 * time.Second, Runner: runner,
	})

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
			released := false
			if fates[i] == fateCancel {
				select {
				case <-started[i]:
				case <-ctx.Done():
				}
				if i%2 == 0 {
					c.Cancel(h.Hash) // explicit cancel
				} else {
					h.Release() // abandonment: the only interest walks away
					released = true
				}
			}
			_, errs[i] = h.Wait(ctx)
			if !released {
				h.Release()
			}
		}(i, h)
	}

	// Drain with a deadline shorter than the queued work: the rest is cut.
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer dcancel()
	if err := c.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want the deadline to cut the run short", err)
	}
	wg.Wait()

	var done, failed, canceled int
	for i, err := range errs {
		switch {
		case err == nil:
			done++
			if fates[i] != fateComplete {
				t.Errorf("job %d (fate %d) completed", i, fates[i])
			}
		case errors.Is(err, errCrash):
			failed++
			if fates[i] != fateFail {
				t.Errorf("job %d (fate %d) failed", i, fates[i])
			}
		case errors.Is(err, context.Canceled):
			canceled++
		default:
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if overlap.Load() {
		t.Error("a spec ran twice at once")
	}
	for i := 0; i < jobs; i++ {
		if runs[i] > 1 {
			t.Errorf("spec %d ran %d times", i, runs[i])
		}
	}
	if canceled == 0 || done+failed+canceled != jobs {
		t.Errorf("settlements: %d done, %d failed, %d canceled of %d jobs", done, failed, canceled, jobs)
	}
	var text strings.Builder
	if err := c.Registry().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for state, want := range map[string]int{"done": done, "failed": failed, "canceled": canceled} {
		line := fmt.Sprintf(`epi_scenario_jobs_total{state="%s"} %d`, state, want)
		if !strings.Contains(text.String(), line+"\n") {
			t.Errorf("service booked settlements differently from its waiters: want %q in\n%s", line, text.String())
		}
	}
	servetest.AssertQuiesced(t, c, goroutinesBefore)
	t.Logf("chaos: %d done, %d failed, %d canceled", done, failed, canceled)
}
