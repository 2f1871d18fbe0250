package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestPlanSteals pins the donor/thief choice as a table over the pools'
// loads: a donor has queued work and no idle worker of its own, a thief has
// an empty FIFO and an idle worker, and a thief never receives more jobs than
// it has idle workers.
func TestPlanSteals(t *testing.T) {
	up := func(queued, running, workers int) poolLoad {
		return poolLoad{queued: queued, running: running, workers: workers, up: true}
	}
	down := func(queued, running, workers int) poolLoad {
		return poolLoad{queued: queued, running: running, workers: workers}
	}
	for _, tc := range []struct {
		name  string
		loads []poolLoad
		want  []steal
	}{
		{"a queued job with an idle worker of its own is not backlog",
			[]poolLoad{up(1, 1, 2), up(0, 0, 2)}, nil},
		{"a queued job nobody has picked up yet is not backlog either",
			[]poolLoad{up(1, 0, 2), up(0, 0, 2)}, nil},
		{"a down pool is not a donor",
			[]poolLoad{down(3, 2, 2), up(0, 0, 2)}, nil},
		{"a down pool is not a thief",
			[]poolLoad{up(3, 2, 2), down(0, 0, 2)}, nil},
		{"two equally busy pools exchange nothing",
			[]poolLoad{up(2, 2, 2), up(2, 2, 2)}, nil},
		{"a busy pool with an empty FIFO has no idle worker to steal with",
			[]poolLoad{up(1, 2, 2), up(0, 2, 2)}, nil},
		{"one idle worker takes one job",
			[]poolLoad{up(5, 2, 2), up(0, 1, 2)}, []steal{{from: 0, to: 1, n: 1}}},
		{"an idle pool takes as many jobs as it has workers",
			[]poolLoad{up(5, 2, 2), up(0, 0, 2)}, []steal{{from: 0, to: 1, n: 2}}},
		{"a thief takes no more than the donor has",
			[]poolLoad{up(0, 0, 4), up(1, 2, 2)}, []steal{{from: 1, to: 0, n: 1}}},
		{"two thieves share one donor's backlog",
			[]poolLoad{up(0, 0, 1), up(3, 1, 1), up(0, 0, 1)},
			[]steal{{from: 1, to: 0, n: 1}, {from: 1, to: 2, n: 1}}},
		{"one thief drains two donors up to its idle workers",
			[]poolLoad{up(1, 1, 1), up(0, 0, 3), up(4, 1, 1)},
			[]steal{{from: 0, to: 1, n: 1}, {from: 2, to: 1, n: 2}}},
	} {
		if got := planSteals(tc.loads); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: planSteals(%+v) = %+v, want %+v", tc.name, tc.loads, got, tc.want)
		}
	}
}

// gatedPools builds an n-pool service whose runners block until the test
// releases them, one gate per pool, with the background rebalancer off.
func gatedPools(t *testing.T, n, workers, queueCap int) (*Service, []chan struct{}) {
	t.Helper()
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{}, 64)
	}
	s := NewService(Config{
		Replicas: n, Workers: workers, QueueCap: queueCap, Fingerprint: "test", RebalanceEvery: -1,
		RunnerFor: func(i int) Runner {
			return func(ctx context.Context, spec Spec) (*Result, error) {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-gates[i]:
					return &Result{}, nil
				}
			}
		},
	})
	t.Cleanup(func() {
		for _, g := range gates {
			close(g)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, gates
}

func waitLoads(t *testing.T, s *Service, queued, running int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		q, r := s.Loads()
		if q == queued && r == running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("loads %d queued / %d running, want %d / %d", q, r, queued, running)
		}
	}
}

// TestCancelFreesQueueSlot pins that nothing dead occupies a bounded slot:
// with the worker gated and the FIFO at QueueCap, cancelling k queued jobs
// admits and queues k fresh submissions.
func TestCancelFreesQueueSlot(t *testing.T) {
	const queueCap, k = 4, 2
	s, _ := gatedPools(t, 1, 1, queueCap)
	if _, err := s.Submit(predSpec("VA", 10)); err != nil {
		t.Fatal(err)
	}
	waitLoads(t, s, 0, 1)
	var queued []*Job
	for i := 0; i < queueCap; i++ {
		j, err := s.Submit(predSpec("VA", 20+i))
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := s.Submit(predSpec("VA", 30)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: %v, want ErrQueueFull", err)
	}
	if !s.Cancel(queued[0].Hash) { // explicit cancel
		t.Fatal("cancel of a queued job refused")
	}
	queued[2].Release() // abandonment
	waitLoads(t, s, queueCap-k, 1)
	for i := 0; i < k; i++ {
		if _, err := s.Submit(predSpec("VA", 40+i)); err != nil {
			t.Fatalf("fresh submission %d after %d cancels: %v", i, k, err)
		}
	}
	waitLoads(t, s, queueCap, 1)
	if _, err := s.Submit(predSpec("VA", 50)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("refilled queue: %v, want ErrQueueFull", err)
	}
}

// TestStealFreesQueueSlot is the two-pool form: a stolen job leaves no
// tombstone in the donor's FIFO, so the aggregate queue admits exactly as
// many fresh submissions as jobs have left it.
func TestStealFreesQueueSlot(t *testing.T) {
	const queueCap = 2
	s, gates := gatedPools(t, 2, 1, queueCap)
	for i := 0; i < 2; i++ { // one run per pool
		if _, err := s.Submit(predSpec("VA", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitLoads(t, s, 0, 2)
	for i := 0; i < 2*queueCap; i++ { // both FIFOs full
		if _, err := s.Submit(predSpec("VA", 20+i)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := s.Submit(predSpec("VA", 30)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full aggregate queue: %v, want ErrQueueFull", err)
	}
	// Pool 1 works through everything it holds; pool 0 stays gated with a
	// full FIFO and no idle worker.
	for i := 0; i < 1+queueCap; i++ {
		gates[1] <- struct{}{}
	}
	waitLoads(t, s, queueCap, 1)
	if moved := s.RebalanceOnce(); moved != 1 {
		t.Fatalf("RebalanceOnce moved %d jobs, want 1 (the thief has one worker)", moved)
	}
	waitLoads(t, s, queueCap-1, 2) // the stolen job runs at once on pool 1
	// Three slots are free — two on pool 1, the stolen job's on pool 0 — and
	// every one of them admits.
	for i := 0; i < queueCap+1; i++ {
		if _, err := s.Submit(predSpec("VA", 40+i)); err != nil {
			t.Fatalf("fresh submission %d after the steal: %v", i, err)
		}
	}
	waitLoads(t, s, 2*queueCap, 2)
	st := s.ReplicaStatus()
	for _, r := range st.Replicas {
		if r.Queued != queueCap {
			t.Fatalf("pool %d holds %d queued jobs, want its QueueCap %d: %+v", r.ID, r.Queued, queueCap, st.Replicas)
		}
	}
}
