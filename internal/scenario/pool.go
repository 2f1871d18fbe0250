package scenario

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// pool is one replica behind the front door: a name, a FIFO of jobs, a fixed
// set of workers, a running count, an up/down flag and the context its runs
// derive from. Every field after ctx is guarded by Service.mu.
type pool struct {
	id     int
	name   string // "r0", "r1", ... in traces and pprof labels
	runner Runner
	ctx    context.Context // parent of every run on this pool
	cancel context.CancelFunc

	// cond wakes this pool's idle workers: signalled per enqueue, broadcast
	// on kill and drain. Its locker is Service.mu.
	cond     *sync.Cond
	queue    []*Job
	queuedBy [3]int // per Priority class
	running  int
	started  int // workers that have come up
	down     bool
}

// remove takes j out of the FIFO, so a job that leaves — to a worker, a
// thief, or a cancellation — frees its slot at once.
func (p *pool) remove(j *Job) {
	if i := slices.Index(p.queue, j); i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
		p.queuedBy[j.pri]--
	}
}

// enqueueLocked appends j to p's FIFO, opens its queue.wait span there and
// wakes one of p's workers. Caller holds s.mu.
func (s *Service) enqueueLocked(p *pool, j *Job) {
	j.pool = p
	p.queue = append(p.queue, j)
	p.queuedBy[j.pri]++
	_, j.qspan = obs.StartSpan(j.tctx, "queue.wait",
		obs.String("hash", j.Hash), obs.String("priority", j.pri.String()),
		obs.String("replica", p.name))
	p.cond.Signal()
}

// pickLocked chooses where the next job goes: the least-loaded up pool
// (queued+running; every pool has the same worker count), preferring one
// whose FIFO has room. Admission guarantees a pool with room for a fresh job;
// work displaced by a kill is placed regardless, because admitted work is
// never refused. Returns nil when every pool is down. Caller holds s.mu.
func (s *Service) pickLocked() *pool {
	var best *pool
	for _, p := range s.pools {
		if p.down {
			continue
		}
		if best == nil {
			best = p
			continue
		}
		pRoom, bestRoom := len(p.queue) < s.queueCap, len(best.queue) < s.queueCap
		if pRoom != bestRoom {
			if pRoom {
				best = p
			}
		} else if len(p.queue)+p.running < len(best.queue)+best.running {
			best = p
		}
	}
	return best
}

// dispatchLocked places j on the pool pickLocked chooses and returns it, or
// nil when every pool is down. Caller holds s.mu.
func (s *Service) dispatchLocked(j *Job) *pool {
	p := s.pickLocked()
	if p != nil {
		s.enqueueLocked(p, j)
		s.dispatched.Inc()
	}
	return p
}

// poolLoad is what the steal plan reads of one pool.
type poolLoad struct {
	queued, running, workers int
	up                       bool
}

// steal moves n queued jobs between two pools.
type steal struct{ from, to, n int }

// planSteals decides one rebalance scan as a pure function of the pools'
// loads. A donor is an up pool with queued work and no idle worker of its
// own: a job that merely sits between enqueue and pick-up is not backlog. A
// thief is an up pool with an empty FIFO and an idle worker, and receives at
// most as many jobs as it has idle workers — so a moved job starts at once
// and can never turn its new home into a donor.
func planSteals(loads []poolLoad) []steal {
	left := make([]int, len(loads)) // donors' queued jobs not yet planned away
	for i, l := range loads {
		left[i] = l.queued
	}
	var plan []steal
	for t, thief := range loads {
		if !thief.up || thief.queued > 0 {
			continue
		}
		idle := thief.workers - thief.running
		for d, donor := range loads {
			if idle <= 0 {
				break
			}
			if !donor.up || left[d] == 0 || donor.running < donor.workers {
				continue
			}
			n := min(idle, left[d])
			left[d] -= n
			idle -= n
			plan = append(plan, steal{from: d, to: t, n: n})
		}
	}
	return plan
}

// moveLocked steals queued job j onto pool to: the same pointer leaves one
// FIFO and joins the other, its queue.wait span on the donor ends "stolen"
// and a new one opens on the thief. Caller holds s.mu.
func (s *Service) moveLocked(j *Job, to *pool, d *deferred) {
	from, qs := j.pool, j.qspan
	from.remove(j)
	s.enqueueLocked(to, j)
	s.steals.Inc()
	d.add(func() {
		endQueueSpan(qs, "stolen")
		obs.Event(j.tctx, "replica.steal", obs.Int("from", int64(from.id)),
			obs.Int("to", int64(to.id)), obs.String("hash", j.Hash))
	})
}

// RebalanceOnce performs one work-stealing scan under one lock acquisition:
// the oldest queued jobs of each donor move to the thieves planSteals pairs
// it with. Returns the number of jobs moved.
func (s *Service) RebalanceOnce() int {
	var d deferred
	moved := 0
	s.mu.Lock()
	if !s.draining { // a drain moves nothing: idle workers may already be gone
		loads := make([]poolLoad, len(s.pools))
		for i, p := range s.pools {
			loads[i] = poolLoad{queued: len(p.queue), running: p.running, workers: s.workers, up: !p.down}
		}
		for _, st := range planSteals(loads) {
			for ; st.n > 0; st.n-- {
				s.moveLocked(s.pools[st.from].queue[0], s.pools[st.to], &d)
				moved++
			}
		}
	}
	s.mu.Unlock()
	d.run()
	return moved
}

// rebalanceLoop runs the steal scan every period until Drain.
func (s *Service) rebalanceLoop(every time.Duration) {
	defer s.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.stopRebalance:
			return
		case <-tick.C:
			s.RebalanceOnce()
		}
	}
}

// KillReplica simulates a crash of pool i: the pool is marked down (nothing
// is placed on it or stolen to it again), its queued jobs move to up peers at
// once, and its context is cancelled. Each running job's worker then sees
// the cancellation and requeues the job on a peer (see run), so no waiter is
// lost and no spec runs twice. With no up peer left — or during a drain,
// when the peers' idle workers may be gone — the queued jobs settle as
// canceled instead. Returns false for an unknown or already-down pool.
func (s *Service) KillReplica(i int) bool {
	var d deferred
	s.mu.Lock()
	if i < 0 || i >= len(s.pools) || s.pools[i].down {
		s.mu.Unlock()
		return false
	}
	p := s.pools[i]
	p.down = true
	for len(p.queue) > 0 {
		j := p.queue[0]
		if to := s.pickLocked(); to != nil && !s.draining {
			s.moveLocked(j, to, &d)
			continue
		}
		s.cancelQueuedLocked(j, &d)
	}
	p.cancel()
	p.cond.Broadcast()
	s.mu.Unlock()
	d.run()
	return true
}

// ReplicaInfo is one pool's row in the /replicas payload.
type ReplicaInfo struct {
	ID       int  `json:"id"`
	Up       bool `json:"up"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Workers  int  `json:"workers"`
	QueueCap int  `json:"queue_cap"`
	// QueuedByClass breaks Queued down per priority class
	// (interactive/normal/batch) so operators can see whose work is waiting
	// where.
	QueuedByClass map[string]int `json:"queued_by_class"`
}

// ClusterStatus is the /replicas payload.
type ClusterStatus struct {
	Replicas []ReplicaInfo `json:"replicas"`
	// LiveTickets is the size of the single-flight table.
	LiveTickets int `json:"live_tickets"`
	// QueuedByClass aggregates the per-class queued counts across the up
	// pools.
	QueuedByClass map[string]int `json:"queued_by_class"`
	Dispatched    int64          `json:"dispatched"`
	Steals        int64          `json:"steals"`
	Requeues      int64          `json:"requeues"`
	BatchExecs    int64          `json:"batch_execs"`
	BatchMembs    int64          `json:"batch_members"`
	// SharedKeys is the number of results resident in the result store.
	SharedKeys int `json:"shared_keys"`
}

// ReplicaStatus snapshots the pools and the front-door counters.
func (s *Service) ReplicaStatus() ClusterStatus {
	st := ClusterStatus{
		QueuedByClass: map[string]int{},
		Dispatched:    s.dispatched.Value(),
		Steals:        s.steals.Value(),
		Requeues:      s.requeues.Value(),
		BatchExecs:    s.batchExecs.Value(),
		BatchMembs:    s.batchMembs.Value(),
		SharedKeys:    s.store.Len(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.LiveTickets = len(s.inflight)
	for _, p := range s.pools {
		byClass := map[string]int{}
		for _, pri := range []Priority{PriorityInteractive, PriorityNormal, PriorityBatch} {
			byClass[pri.String()] = p.queuedBy[pri]
			if !p.down {
				st.QueuedByClass[pri.String()] += p.queuedBy[pri]
			}
		}
		st.Replicas = append(st.Replicas, ReplicaInfo{
			ID: p.id, Up: !p.down, Queued: len(p.queue), Running: p.running,
			Workers: s.workers, QueueCap: s.queueCap, QueuedByClass: byClass,
		})
	}
	return st
}
