// Fuzz targets for the two invariant-heavy surfaces of the scheduler: the
// r-relaxed coloring greedy (any simple graph, any r — a returned coloring
// must validate) and the pack → flatten → execute → validate round trip
// (arbitrary task sets must produce either an error or a valid execution,
// never a panic). Under plain `go test` these replay the seed corpus; run
// `go test -fuzz=FuzzRelaxedColoring ./internal/sched` to explore.
package sched_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// graphFromBytes decodes a simple undirected graph: node count from the
// first byte (capped), then byte pairs as edges. Self-loops are kept so the
// error path is exercised too; duplicates are removed (the conflict graphs
// of the paper are simple).
func graphFromBytes(data []byte) [][]int {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%24 + 1
	adj := make([][]int, n)
	seen := map[[2]int]bool{}
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			adj[u] = append(adj[u], v) // self-loop: must be rejected
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return adj
}

func FuzzRelaxedColoring(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0}, 1) // 5-cycle, proper coloring
	f.Add([]byte{8, 0, 1, 0, 2, 1, 2, 3, 4, 3, 5}, 2) // triangle + edge, r=2
	f.Add([]byte{3, 0, 0}, 1)                         // self-loop → error
	f.Add([]byte{6, 0, 1, 2, 3}, 0)                   // r < 1 → error
	f.Add([]byte{16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3)
	f.Fuzz(func(t *testing.T, data []byte, r int) {
		adj := graphFromBytes(data)
		colors, err := sched.RelaxedColoring(adj, r)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if r < 1 {
			t.Fatalf("r=%d accepted", r)
		}
		if len(colors) != len(adj) {
			t.Fatalf("%d colors for %d nodes", len(colors), len(adj))
		}
		if err := sched.ValidateRelaxedColoring(adj, colors, r); err != nil {
			t.Fatalf("greedy produced invalid coloring: %v", err)
		}
	})
}

// tasksFromBytes decodes an arbitrary task set: 4 bytes per task. Times and
// node counts are left unclamped enough to hit the schedulers' validation
// paths (zero-node tasks, tasks wider than the machine).
func tasksFromBytes(data []byte) []sched.Task {
	regions := []string{"CA", "VA", "WY", "TX"}
	var tasks []sched.Task
	for i := 0; i+3 < len(data); i += 4 {
		tasks = append(tasks, sched.Task{
			Region:    regions[int(data[i])%len(regions)],
			Cell:      int(data[i+1]),
			Replicate: int(data[i]) % 3,
			Nodes:     int(data[i+2]) - 2, // may be ≤ 0 or oversized
			Time:      float64(int(data[i+3]) - 1),
		})
	}
	return tasks
}

func FuzzScheduleRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 4, 100, 1, 2, 6, 50, 2, 3, 3, 200}, uint8(16), uint8(2))
	f.Add([]byte{0, 0, 0, 0}, uint8(8), uint8(1))     // zero-node task
	f.Add([]byte{3, 9, 255, 255}, uint8(4), uint8(0)) // oversized task
	f.Add([]byte{1, 1, 3, 0, 1, 2, 3, 0}, uint8(6), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0)) // empty everything
	f.Fuzz(func(t *testing.T, data []byte, totalNodes, bound uint8) {
		tasks := tasksFromBytes(data)
		c := sched.Constraints{TotalNodes: int(totalNodes)}
		if bound > 0 {
			c.DBBound = map[string]int{"CA": int(bound), "VA": int(bound % 3)}
		}
		for _, pack := range []func([]sched.Task, sched.Constraints) (*sched.Schedule, error){
			sched.FFDTDC, sched.NFDTDC, sched.FIFO,
		} {
			s, err := pack(tasks, c)
			if err != nil {
				continue // invalid instances must error, not panic
			}
			if err := s.Validate(tasks, c); err != nil {
				t.Fatalf("accepted instance packed invalidly: %v", err)
			}
			flat := s.Flatten()
			if len(flat) != len(tasks) {
				t.Fatalf("flatten lost tasks: %d of %d", len(flat), len(tasks))
			}
			deadline := s.Makespan() / 2
			res, err := cluster.ExecuteBackfill(flat, c, deadline)
			if err == nil {
				if err := cluster.ValidateExecution(res, c, deadline); err != nil {
					t.Fatalf("backfill execution invalid: %v", err)
				}
				if len(res.Records)+len(res.Unstarted) != len(tasks) {
					t.Fatalf("execution lost tasks: %d + %d of %d",
						len(res.Records), len(res.Unstarted), len(tasks))
				}
			}
			lv := cluster.ExecuteLevelSync(s, deadline)
			if err := cluster.ValidateExecution(lv, c, deadline); err != nil {
				t.Fatalf("level-sync execution invalid: %v", err)
			}
		}
	})
}
