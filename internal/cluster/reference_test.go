package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// referenceBackfill is the naive executor ExecuteBackfillOpts replaced, kept
// verbatim (minus the span) as the oracle: at every completion event it
// rescans the whole queue in order and starts whatever fits. Quadratic, and
// obviously the in-order scan the production executor must reproduce bit
// for bit.
func referenceBackfill(tasks []sched.Task, c sched.Constraints, opt ExecOptions) (ExecResult, error) {
	if c.TotalNodes <= 0 {
		return ExecResult{}, fmt.Errorf("cluster: non-positive node count")
	}
	for _, t := range tasks {
		if t.Nodes <= 0 || t.Nodes > c.TotalNodes {
			return ExecResult{}, fmt.Errorf("cluster: task %+v cannot fit on %d nodes", t, c.TotalNodes)
		}
	}
	type running struct {
		end  float64
		task sched.Task
	}
	var res ExecResult
	queue := append([]sched.Task(nil), tasks...)
	pending := make([]bool, len(queue))
	for i := range pending {
		pending[i] = true
	}
	remaining := len(queue)
	free := c.TotalNodes
	regionRunning := map[string]int{}
	var active []running
	now := opt.StartAt
	busy := 0.0

	for remaining > 0 || len(active) > 0 {
		// Start everything that fits, scanning the queue in order.
		startedAny := false
		for i := range queue {
			if !pending[i] {
				continue
			}
			t := queue[i]
			if t.Nodes > free {
				continue
			}
			if bound, ok := c.DBBound[t.Region]; ok && regionRunning[t.Region] >= bound {
				continue
			}
			if opt.Deadline > 0 && now+t.Time > opt.Deadline {
				pending[i] = false
				remaining--
				res.Unstarted = append(res.Unstarted, t)
				continue
			}
			if opt.Injector != nil {
				if f := opt.Injector(t); f.Kind != faults.None {
					pending[i] = false
					remaining--
					if f.Kind == faults.DBRefusal {
						res.Failed = append(res.Failed, FaultRecord{Task: t, Kind: f.Kind, Start: now, At: now})
						continue
					}
					end := now + clampFrac(f.Frac)*t.Time
					res.Failed = append(res.Failed, FaultRecord{Task: t, Kind: f.Kind, Start: now, At: end})
					res.WastedNodeSeconds += (end - now) * float64(t.Nodes)
					free -= t.Nodes
					regionRunning[t.Region]++
					active = append(active, running{end: end, task: t})
					startedAny = true
					continue
				}
			}
			pending[i] = false
			remaining--
			free -= t.Nodes
			regionRunning[t.Region]++
			active = append(active, running{end: now + t.Time, task: t})
			res.Records = append(res.Records, TaskRecord{Task: t, Start: now, End: now + t.Time})
			busy += t.Time * float64(t.Nodes)
			startedAny = true
		}
		if len(active) == 0 {
			if !startedAny && remaining > 0 {
				// Nothing runnable and nothing running: all remaining
				// tasks are blocked by the deadline (handled above) —
				// defensive break against malformed bounds.
				for i := range queue {
					if pending[i] {
						res.Unstarted = append(res.Unstarted, queue[i])
					}
				}
				break
			}
			continue
		}
		// Advance to the earliest completion.
		sort.Slice(active, func(a, b int) bool { return active[a].end < active[b].end })
		now = active[0].end
		for len(active) > 0 && active[0].end <= now {
			done := active[0]
			active = active[1:]
			free += done.task.Nodes
			regionRunning[done.task.Region]--
		}
		if now > res.Makespan {
			res.Makespan = now
		}
	}
	res.BusyNodeSeconds = busy
	if res.Makespan > 0 {
		res.Utilization = busy / (res.Makespan * float64(c.TotalNodes))
	}
	return res, nil
}

// faultyInjector draws crashes and refusals from the deterministic fault
// model and logs every consultation, so the differential tests can also
// hold "consulted exactly once per task, in start order".
func faultyInjector(seed uint64, calls *[]sched.Task) Injector {
	fm := faults.New(faults.Spec{Seed: seed, TaskCrashProb: 0.08, DBRefusalProb: 0.04})
	return func(t sched.Task) faults.TaskFault {
		*calls = append(*calls, t)
		return fm.Task(t.Region, t.Cell, t.Replicate, 0)
	}
}

// assertMatchesReference runs both executors on the same input, with and
// without the fault injector, and requires identical results — every float
// bit, slice order and nil-ness — and identical injector call sequences.
func assertMatchesReference(t *testing.T, name string, tasks []sched.Task, c sched.Constraints, opt ExecOptions, faultSeed uint64) {
	t.Helper()
	for _, faulty := range []bool{false, true} {
		var gotCalls, wantCalls []sched.Task
		gotOpt, wantOpt := opt, opt
		if faulty {
			gotOpt.Injector = faultyInjector(faultSeed, &gotCalls)
			wantOpt.Injector = faultyInjector(faultSeed, &wantCalls)
		}
		got, gotErr := ExecuteBackfillOpts(tasks, c, gotOpt)
		want, wantErr := referenceBackfill(tasks, c, wantOpt)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s faulty=%v: error %v, reference %v", name, faulty, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s faulty=%v: result diverges from the reference scan\n got: %d records %d failed %d unstarted makespan %v util %v busy %v wasted %v\nwant: %d records %d failed %d unstarted makespan %v util %v busy %v wasted %v",
				name, faulty,
				len(got.Records), len(got.Failed), len(got.Unstarted), got.Makespan, got.Utilization, got.BusyNodeSeconds, got.WastedNodeSeconds,
				len(want.Records), len(want.Failed), len(want.Unstarted), want.Makespan, want.Utilization, want.BusyNodeSeconds, want.WastedNodeSeconds)
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("%s: injector consulted in a different order (%d calls, reference %d)", name, len(gotCalls), len(wantCalls))
		}
	}
}

// tableINight packs a Table I shaped night (cells × replicates per region)
// over the given regions with FFDT-DC and returns the executor's queue.
func tableINight(t *testing.T, regions []synthpop.StateInfo, cells, reps int, spread float64, c sched.Constraints, seed uint64) []sched.Task {
	t.Helper()
	w := sched.Workload{Cells: cells, Replicates: reps, Regions: regions,
		Time: sched.DefaultTimeModel(), MaxInterventionFactor: spread}
	tasks := w.Tasks(stats.NewRNG(seed))
	// Pack under generous bounds: the executor is what enforces c.
	s, err := sched.FFDTDC(tasks, sched.Constraints{TotalNodes: c.TotalNodes})
	if err != nil {
		t.Fatal(err)
	}
	return s.Flatten()
}

// dbBoundCases are the DB-bound shapes of the differential matrix.
func dbBoundCases(regions []synthpop.StateInfo) map[string]map[string]int {
	uniform := func(b int, skipEvery int) map[string]int {
		m := map[string]int{}
		for i, st := range regions {
			if skipEvery > 0 && i%skipEvery == 0 {
				continue // absent region: unbounded
			}
			m[st.Code] = b
		}
		return m
	}
	return map[string]map[string]int{
		"bound1":       uniform(1, 0),
		"bound3":       uniform(3, 0),
		"bound8":       uniform(8, 0),
		"bound8absent": uniform(8, 3),
		"unbounded":    nil,
	}
}

// The differential oracle: over seeds × Table I shapes × DB bounds ×
// deadlines × start clocks × injectors the event-driven executor returns
// exactly what the naive in-order scan returns. The matrix runs the two
// Table I shapes (12 cells × 15 replicates, 300 × 1) over every eighth
// state on an eighth of Bridges, which keeps the per-region queue depth of
// the real nights while the quadratic oracle stays affordable under -race.
func TestBackfillMatchesReference(t *testing.T) {
	var eighth []synthpop.StateInfo
	for i := 0; i < len(synthpop.States); i += 8 {
		eighth = append(eighth, synthpop.States[i])
	}
	nodes := Bridges().Nodes / 8
	shapes := []struct {
		name        string
		cells, reps int
		spread      float64
	}{{"12x15", 12, 15, 4}, {"300x1", 300, 1, 1.4}}
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, sh := range shapes {
			for bname, bounds := range dbBoundCases(eighth) {
				c := sched.Constraints{TotalNodes: nodes, DBBound: bounds}
				queue := tableINight(t, eighth, sh.cells, sh.reps, sh.spread, c, seed)
				for _, startAt := range []float64{0, 7200.5} {
					free, err := ExecuteBackfillOpts(queue, c, ExecOptions{StartAt: startAt})
					if err != nil {
						t.Fatal(err)
					}
					midRun := startAt + 0.4*(free.Makespan-startAt)
					for _, deadline := range []float64{0, NightlyWindow().Seconds(), midRun} {
						name := fmt.Sprintf("seed%d/%s/%s/start%g/deadline%g", seed, sh.name, bname, startAt, deadline)
						assertMatchesReference(t, name, queue, c, ExecOptions{Deadline: deadline, StartAt: startAt}, seed+17)
					}
				}
			}
		}
	}
}

// The full 51-region nights on all of Bridges, once each, at the production
// bound and window.
func TestBackfillMatchesReferenceFullNight(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic oracle on 9180- and 15300-task nights")
	}
	c := sched.Constraints{TotalNodes: Bridges().Nodes, DBBound: sched.DefaultDBBounds(16)}
	for _, sh := range []struct {
		name        string
		cells, reps int
		spread      float64
	}{{"12x15", 12, 15, 4}, {"300x1", 300, 1, 1.4}} {
		queue := tableINight(t, nil, sh.cells, sh.reps, sh.spread, c, 1)
		assertMatchesReference(t, sh.name, queue, c, ExecOptions{Deadline: NightlyWindow().Seconds()}, 5)
	}
}

// Adversarial shapes for the bucket index and the end-time heap.
func TestBackfillMatchesReferenceAdversarial(t *testing.T) {
	r := stats.NewRNG(11)
	mk := func(n int, f func(i int) sched.Task) []sched.Task {
		out := make([]sched.Task, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	regions := []string{"CA", "VA", "WY", "TX"}
	cases := []struct {
		name  string
		tasks []sched.Task
		c     sched.Constraints
		opt   ExecOptions
	}{
		{"empty", nil, sched.Constraints{TotalNodes: 4}, ExecOptions{StartAt: 5}},
		{"one-region-bound-1", mk(200, func(i int) sched.Task {
			return sched.Task{Region: "VA", Cell: i, Nodes: 1 + i%3, Time: 10 + 90*r.Float64()}
		}), sched.Constraints{TotalNodes: 12, DBBound: map[string]int{"VA": 1}}, ExecOptions{Deadline: 6000}},
		{"full-width-tasks", mk(120, func(i int) sched.Task {
			nodes := 16
			if i%4 == 1 {
				nodes = 1 + i%5
			}
			return sched.Task{Region: regions[i%4], Cell: i, Nodes: nodes, Time: 5 + 50*r.Float64()}
		}), sched.Constraints{TotalNodes: 16, DBBound: map[string]int{"CA": 2, "VA": 1}}, ExecOptions{}},
		{"zero-time-tasks", mk(150, func(i int) sched.Task {
			time := 0.0
			if i%3 == 0 {
				time = float64(i % 7)
			}
			return sched.Task{Region: regions[i%4], Cell: i, Nodes: 1 + i%4, Time: time}
		}), sched.Constraints{TotalNodes: 6, DBBound: map[string]int{"CA": 1, "TX": 2}}, ExecOptions{StartAt: 3, Deadline: 40}},
		{"all-zero-time", mk(40, func(i int) sched.Task {
			return sched.Task{Region: regions[i%2], Cell: i, Nodes: 2}
		}), sched.Constraints{TotalNodes: 4, DBBound: map[string]int{"CA": 1}}, ExecOptions{StartAt: 9}},
		{"equal-end-times", mk(90, func(i int) sched.Task {
			return sched.Task{Region: regions[i%4], Cell: i, Nodes: 1 + i%2, Time: float64(10 * (1 + i%3))}
		}), sched.Constraints{TotalNodes: 7, DBBound: map[string]int{"WY": 2}}, ExecOptions{Deadline: 200}},
		{"duplicate-tasks", mk(60, func(i int) sched.Task {
			return sched.Task{Region: regions[i%2], Cell: i % 3, Nodes: 2, Time: 10}
		}), sched.Constraints{TotalNodes: 6, DBBound: map[string]int{"CA": 2, "VA": 2}}, ExecOptions{}},
		{"non-positive-bounds", mk(80, func(i int) sched.Task {
			return sched.Task{Region: regions[i%4], Cell: i, Nodes: 1 + i%3, Time: 1 + 20*r.Float64()}
		}), sched.Constraints{TotalNodes: 5, DBBound: map[string]int{"CA": 0, "WY": -2, "VA": 1}}, ExecOptions{Deadline: 500}},
		{"only-blocked-regions", mk(10, func(i int) sched.Task {
			return sched.Task{Region: regions[i%2], Cell: i, Nodes: 1, Time: 3}
		}), sched.Constraints{TotalNodes: 5, DBBound: map[string]int{"CA": 0, "VA": 0}}, ExecOptions{StartAt: 2}},
		{"start-past-deadline", mk(30, func(i int) sched.Task {
			return sched.Task{Region: regions[i%4], Cell: i, Nodes: 1 + i%3, Time: 4}
		}), sched.Constraints{TotalNodes: 5}, ExecOptions{StartAt: 100, Deadline: 50}},
		{"oversized-task", []sched.Task{{Region: "CA", Nodes: 9, Time: 1}}, sched.Constraints{TotalNodes: 8}, ExecOptions{}},
		{"no-nodes", []sched.Task{{Region: "CA", Nodes: 1, Time: 1}}, sched.Constraints{}, ExecOptions{}},
	}
	for _, tc := range cases {
		assertMatchesReference(t, tc.name, tc.tasks, tc.c, tc.opt, 23)
	}
}

// backfillFromBytes decodes an executor input: three bytes per task pick
// the region, node count and a coarse time (zero and repeated times are
// likely, which is where event ordering gets interesting).
func backfillFromBytes(data []byte, totalNodes int) []sched.Task {
	var tasks []sched.Task
	for i := 0; i+2 < len(data) && len(tasks) < 200; i += 3 {
		tasks = append(tasks, sched.Task{
			Region: string(rune('A' + data[i]%6)),
			Cell:   len(tasks),
			Nodes:  1 + int(data[i+1])%totalNodes,
			Time:   float64(data[i+2]%32) * 2.5,
		})
	}
	return tasks
}

func FuzzBackfillMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 2, 4, 0, 7, 0, 2, 1, 9, 0, 0, 31}, uint8(8), int8(1), uint8(0), uint8(0), uint64(1))
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1}, uint8(1), int8(1), uint8(3), uint8(2), uint64(2))
	f.Add([]byte{3, 5, 0, 3, 5, 0, 4, 5, 0, 5, 2, 6}, uint8(6), int8(0), uint8(0), uint8(5), uint64(3))
	f.Add([]byte{1, 3, 8, 2, 3, 8, 1, 1, 8, 2, 2, 16, 1, 3, 8}, uint8(4), int8(-1), uint8(40), uint8(0), uint64(4))
	f.Add([]byte{}, uint8(3), int8(2), uint8(0), uint8(0), uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, nodes uint8, bound int8, deadline, startAt uint8, faultSeed uint64) {
		totalNodes := 1 + int(nodes)%16
		tasks := backfillFromBytes(data, totalNodes)
		// Regions A–C take the bound (possibly zero or negative, the
		// malformed case), D–F stay absent from the map: unbounded.
		c := sched.Constraints{TotalNodes: totalNodes, DBBound: map[string]int{"A": int(bound), "B": int(bound) + 1, "C": 2}}
		opt := ExecOptions{Deadline: float64(deadline), StartAt: float64(startAt)}
		assertMatchesReference(t, "fuzz", tasks, c, opt, faultSeed)
	})
}
