package scenario

import "repro/internal/obs"

// registerMetrics puts every series of the serving tier on the one registry:
// the front door's counters and live queue/job/store state as exposition-time
// callbacks. Callbacks run outside the registry lock, so taking s.mu or the
// store's lock in them is deadlock-free.
// The per-workflow latency histograms register on first use (run).
func (s *Service) registerMetrics() {
	reg := s.reg
	counter := func(name, help string) *obs.Counter {
		reg.Help(name, help)
		return reg.Counter(name)
	}
	// locked registers a gauge read under s.mu.
	locked := func(name, help string, read func() int) {
		reg.Help(name, help) // by family: labelled series share one text
		reg.GaugeFunc(name, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(read())
		})
	}

	s.submitted = counter("epi_scenario_submitted_total", "scenario jobs admitted to the queue")
	s.rejected = counter("epi_scenario_rejected_total", "scenario submissions shed by backpressure")
	s.deduped = counter("epi_scenario_deduped_total", "submissions attached to an identical in-flight job")
	s.shed = counter("epi_scenario_shed_total", "submissions shed by priority-class admission control")
	reg.Help("epi_scenario_latency_seconds", "scenario run latency by workflow")
	reg.Help("epi_scenario_jobs_total", "terminal jobs by state")
	s.jobsDone = reg.Counter(`epi_scenario_jobs_total{state="done"}`)
	s.jobsFailed = reg.Counter(`epi_scenario_jobs_total{state="failed"}`)
	s.jobsCanceled = reg.Counter(`epi_scenario_jobs_total{state="canceled"}`)

	locked("epi_scenario_queue_depth", "jobs waiting for a worker", func() int { return len(s.queue) })
	for _, pri := range []Priority{PriorityInteractive, PriorityNormal, PriorityBatch} {
		locked(`epi_scenario_queue_depth_class{class="`+pri.String()+`"}`,
			"jobs waiting for a worker, by priority class", func() int { return s.queuedBy[pri] })
	}
	locked("epi_scenario_queue_capacity", "bounded queue capacity", func() int { return s.queueCap })
	locked("epi_scenario_workers", "worker-pool size", func() int { return s.workers })
	locked("epi_scenario_inflight_jobs", "jobs currently running on a worker", func() int { return s.running })
	locked("epi_scenario_draining", "1 while the service is shutting down", func() int {
		if s.draining {
			return 1
		}
		return 0
	})

	// epi_scenario_cache_{hits,misses,evictions}_total, _entries, _cost_bytes
	// and _hit_ratio come from the store itself.
	s.store.RegisterMetrics(reg, "epi_scenario_cache")
	reg.Help("epi_scenario_cache_entries", "cached results")
	reg.Help("epi_scenario_cache_hits_total", "result-cache hits")
	reg.Help("epi_scenario_cache_misses_total", "specs that had to be computed")
	reg.Help("epi_scenario_cache_evictions_total", "results evicted by the LRU")
	reg.Help("epi_scenario_cache_hit_ratio", "hits over lookups, 0 when idle")
	reg.Help("epi_scenario_cache_capacity", "result-cache capacity")
	reg.GaugeFunc("epi_scenario_cache_capacity", func() float64 { return float64(s.store.Stats().Capacity) })
}
