package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// loopStats is what one closed-loop phase did. Every op that was started is
// booked in attempted; one that failed is booked in failed and has no
// latency, so it misses every latency limit.
type loopStats struct {
	attempted int
	failed    int
	// rounds slices the phase into sampling periods, when a CPU clock was
	// given.
	rounds []round
	// latency holds the successful ops' latencies, indexed by op; a failed
	// or never-started op leaves 0.
	latency []time.Duration
	// errs keeps the first few failures for the report.
	errs []string
}

// succeeded returns the latencies of the successful ops in op order.
func (s *loopStats) succeeded() []time.Duration {
	out := make([]time.Duration, 0, s.attempted-s.failed)
	for _, d := range s.latency {
		if d > 0 {
			out = append(out, d)
		}
	}
	return out
}

const keptErrors = 5

// round is one slice of a measured phase: the ops that succeeded in it and
// the wall and CPU time it took. Throughput and CPU per op are reported as
// medians over rounds, so a stall of a few seconds — this benchmark's hosts
// are virtual machines whose neighbours steal CPU — moves them little.
type round struct {
	ops       int
	wall, cpu time.Duration
}

// roundPeriod is the sampling period of a closed loop's rounds: long enough
// that a round of the slowest closed loop (≈30 ops/s) holds some 75 ops, so
// whole-op counts do not quantize its rate.
const roundPeriod = 2500 * time.Millisecond

// closedLoop drives op(i) for i = 0, 1, 2, … from `clients` goroutines,
// each sending its next op only after its previous one completed — the
// users are analysts and operators who wait for a reply. A client takes
// `stride` consecutive ops at a time and runs them in order, so a workload
// can make op 2k+1 follow op 2k. The loop stops handing out ops when maxOps
// were handed out, the deadline passed (zero: none) or ctx ended; ops in
// flight finish. With a cpu clock (the program's CPU time so far), the loop
// also samples rounds every roundPeriod.
func closedLoop(ctx context.Context, clients, stride, maxOps int, deadline time.Time,
	op func(ctx context.Context, i int) error, cpu func() time.Duration) *loopStats {
	var (
		next  atomic.Int64
		done  atomic.Int64 // ops succeeded so far
		mu    sync.Mutex
		stats = &loopStats{}
		wg    sync.WaitGroup
	)
	book := func(i int, d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		stats.attempted++
		for len(stats.latency) <= i {
			stats.latency = append(stats.latency, 0)
		}
		if err != nil {
			stats.failed++
			if len(stats.errs) < keptErrors {
				stats.errs = append(stats.errs, fmt.Sprintf("op %d: %v", i, err))
			}
			return
		}
		if d <= 0 {
			d = 1 // keep "succeeded" distinguishable from "no latency" on a coarse clock
		}
		stats.latency[i] = d
		done.Add(1)
	}
	stop := make(chan struct{})
	var rounds chan []round
	if cpu != nil {
		rounds = make(chan []round, 1)
		go func() { rounds <- sampleRounds(stop, &done, cpu) }()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				first := int(next.Add(int64(stride))) - stride
				if first >= maxOps || ctx.Err() != nil || (!deadline.IsZero() && !time.Now().Before(deadline)) {
					return
				}
				for i := first; i < first+stride && i < maxOps; i++ {
					t0 := time.Now()
					err := op(ctx, i)
					book(i, time.Since(t0), err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if rounds != nil {
		stats.rounds = <-rounds
	}
	return stats
}

// sampleRounds cuts the time until stop closes into rounds of roundPeriod,
// reading the op counter and the CPU clock at each cut. The remainder counts
// as a round of its own unless it is shorter than half a period.
func sampleRounds(stop <-chan struct{}, done *atomic.Int64, cpu func() time.Duration) []round {
	tick := time.NewTicker(roundPeriod)
	defer tick.Stop()
	var rounds []round
	at, ops, used := time.Now(), 0, cpu()
	for last := false; !last; {
		select {
		case <-tick.C:
		case <-stop:
			last = true
		}
		now, nowOps, nowUsed := time.Now(), int(done.Load()), cpu()
		if last && now.Sub(at) < roundPeriod/2 {
			break
		}
		rounds = append(rounds, round{ops: nowOps - ops, wall: now.Sub(at), cpu: nowUsed - used})
		at, ops, used = now, nowOps, nowUsed
	}
	return rounds
}
