package main

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/synthpop"
)

// A traced run replays a sample of the workload's ops layer by layer from
// one sequential client, so spans do not overlap: each op through episerve,
// then in-process through core, then through the simulator alone. It never
// feeds the end-to-end table.

// timed records a span around fn and returns its duration.
func (e *env) timed(name string, parent, op int, fn func() error) (time.Duration, error) {
	id := e.tr.begin(name, parent, op)
	err := fn()
	return e.tr.end(id), err
}

// book counts one replayed op into the traced run's outcome.
func (m *measured) book(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		m.errs = append(m.errs, err.Error())
	}
}

func medianMS(ds []time.Duration) float64 { return median(msOf(ds)) }
func medianUS(ds []time.Duration) float64 { return 1000 * medianMS(ds) }

const (
	floorProbes = 200 // GET /healthz and cache-hit probes
	missProbes  = 20  // unique smallest-possible misses
)

// floorRequest is the cheapest run the service can be asked for: one day,
// one replicate, unique by transmissibility.
func floorRequest(seed uint64, i int) request {
	return request{class: "floor", spec: spec{Workflow: "prediction", State: "VA", Days: 1, Replicates: 1,
		Configs: []paramSpec{{TAU: 0.2 + 0.01*unit(seed, streamFloor, i), SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}}}}
}

// probeFloors measures, against a running service, the HTTP floor (GET
// /healthz), a result-cache hit and the floor of a miss (admission, queue,
// worker, encode around a one-day run). It returns the three samples.
func probeFloors(ctx context.Context, e *env, s *server, m *measured) (floors, hits, misses []time.Duration) {
	for i := 0; i < floorProbes && ctx.Err() == nil; i++ {
		d, err := e.timed("scenario.healthz", 0, i, func() error {
			code, _, err := s.do(ctx, http.MethodGet, "/healthz", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("/healthz status %d", code)
			}
			return err
		})
		m.book(err)
		floors = append(floors, d)
	}
	for i := 0; i < missProbes && ctx.Err() == nil; i++ {
		d, err := e.timed("scenario.miss_floor", 0, i, func() error {
			_, _, err := send(ctx, s, floorRequest(e.seed, i))
			return err
		})
		m.book(err)
		misses = append(misses, d)
	}
	for i := 0; i < floorProbes && ctx.Err() == nil; i++ {
		d, err := e.timed("scenario.hit", 0, i, func() error {
			_, _, err := send(ctx, s, floorRequest(e.seed, 0))
			return err
		})
		m.book(err)
		hits = append(hits, d)
	}
	return floors, hits, misses
}

func nsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// scrapeScenario reads the serving layer's own counters.
func scrapeScenario(ctx context.Context, s *server, l ledger) map[string]float64 {
	mt := s.scrape(ctx)
	l["scenario.cache_hit_ratio"] = mt["epi_scenario_cache_hit_ratio"]
	if sub := mt["epi_scenario_submitted_total"]; sub > 0 {
		l["scenario.dedup_ratio"] = mt["epi_scenario_deduped_total"] / sub
	}
	l["scenario.rejected"] = mt["epi_scenario_rejected_total"]
	return mt
}

// pipelineFor builds the in-process twin of an episerve deployment: same
// seed, scale and shard count, hence the same fingerprint and results.
func pipelineFor(scale, shards int) *core.Pipeline {
	seed, _ := strconv.ParseUint(pipelineSeed, 10, 64)
	return core.NewPipeline(seed, core.WithScale(scale), core.WithParallelism(shards))
}

// allocMB runs fn and returns the megabytes it allocated.
func allocMB(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), err
}

// simPhases are the simulator's parallel tick phases, as PhaseSeconds names
// them.
var simPhases = [4]string{"upkeep", "transmit", "mutate", "exchange"}

// tracedSim builds and runs one simulator under a root span named root, with
// a child span for New and one per tick phase; what remains is the serial
// part of a run: tick head and tail, merging and interventions.
func (e *env) tracedSim(root string, op int, cfg epihiper.Config) (*epihiper.Result, error) {
	id := e.tr.begin(root, 0, op)
	defer e.tr.end(id)
	var sim *epihiper.Sim
	newD, err := e.timed(root+".new", id, op, func() (err error) {
		sim, err = epihiper.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	at := newD
	for _, ph := range simPhases {
		d := time.Duration(sim.PhaseSeconds(ph) * float64(time.Second))
		e.tr.child(root+"."+ph, id, op, at, d)
		at += d
	}
	return res, err
}

// simLedger fills the per-run phase metrics of one shard setting ("s1",
// "sN") from the spans tracedSim recorded under root.
func (e *env) simLedger(l ledger, root, key string) {
	for _, ph := range simPhases {
		l["epihiper."+key+"."+ph+"_ms"] = medianMS(e.tr.durations(root + "." + ph))
	}
	l["epihiper."+key+".serial_ms"] = medianMS(e.tr.selfByName(root))
}

// withRecorder returns the workload's flags with the flight recorder on.
func (w *serveWorkload) withRecorder() *serveWorkload {
	rec := *w
	rec.flags = append([]string(nil), w.flags...)
	for i := range rec.flags {
		if rec.flags[i] == "-recorder" {
			rec.flags[i+1] = "256"
		}
	}
	return &rec
}

// traceCold is the traced run of serve-cold. Each sampled op goes, one layer
// after the other, through episerve, through a second episerve with its
// flight recorder on, through core in-process, and (one replicate) through
// the simulator alone — layer by layer per op, not phase by phase, so that a
// drift in the host's speed hits all layers of an op alike.
func (w *serveWorkload) traceCold(ctx context.Context, e *env, l ledger) (*measured, error) {
	m := &measured{}
	s, err := w.setup(ctx, e)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rec, err := w.withRecorder().setup(ctx, e)
	if err != nil {
		return nil, err
	}
	defer rec.stop()
	p := pipelineFor(coldScale, 1)
	var net *synthpop.Network
	gen, err := e.timed("synthpop.generate", 0, 0, func() (err error) {
		net, err = p.Network("VA")
		return err
	})
	if err != nil {
		return nil, err
	}
	l["synthpop.generate_ms"] = ms(gen)
	l["synthpop.nodes"], l["synthpop.edges"] = float64(net.NumNodes()), float64(net.NumEdges())

	var allocs []float64
	var infections int64
	for i, start := 0, time.Now(); time.Since(start) < e.seconds*3/4 && ctx.Err() == nil; i++ {
		r := w.request(w.warmup + i)
		err := func() error {
			var rep *reply
			plain := func() error {
				_, err := e.timed("http.prediction", 0, i, func() (err error) {
					_, rep, err = w.send(ctx, s, r)
					return err
				})
				return err
			}
			recorded := func() error {
				_, err := e.timed("http.prediction.recorded", 0, i, func() error {
					_, _, err := w.send(ctx, rec, r)
					return err
				})
				return err
			}
			// Alternate which server goes first: the op after a pause is
			// the slower one, whichever server takes it.
			if i%2 == 1 {
				plain, recorded = recorded, plain
			}
			if err := plain(); err != nil {
				return err
			}
			if err := recorded(); err != nil {
				return err
			}
			var out *core.PredictionOutcome
			mb, err := allocMB(func() error {
				_, err := e.timed("core.prediction", 0, i, func() (err error) {
					out, err = p.RunPredictionWorkflowCtx(ctx, r.spec.predictionConfig())
					return err
				})
				return err
			})
			if err != nil {
				return err
			}
			allocs = append(allocs, mb)
			if !reflect.DeepEqual(out.Confirmed.Median, rep.Prediction.Confirmed.Median) {
				return fmt.Errorf("op %d: in-process forecast differs from the served one", i)
			}
			cfg, err := simConfigFor(net, r.spec, 1, mix(e.seed, streamKernel, i))
			if err != nil {
				return err
			}
			res, err := e.tracedSim("epihiper.s1", i, cfg)
			if err == nil && i == 0 { // the first op's, so the count repeats exactly
				infections = res.TotalInfections
			}
			return err
		}()
		m.book(err)
	}
	m.latency = e.tr.durations("http.prediction")
	l["scenario.abm_miss_ms"] = medianMS(m.latency)
	if base := medianMS(m.latency); base > 0 {
		l["obs.trace_overhead_pct"] = 100 * (medianMS(e.tr.durations("http.prediction.recorded"))/base - 1)
	}
	l["core.prediction_ms"] = medianMS(e.tr.durations("core.prediction"))
	l["core.alloc_mb_per_prediction"] = median(allocs)
	l["epihiper.new_ms"] = medianMS(e.tr.durations("epihiper.s1.new"))
	l["epihiper.infections"] = float64(infections)
	e.simLedger(l, "epihiper.s1", "s1")
	l["epihiper.ns_per_edge_tick"] = median(nsOf(e.tr.durations("epihiper.s1"))) /
		(float64(net.NumEdges()) * float64(w.request(0).spec.Days))

	floor, hit, miss := probeFloors(ctx, e, s, m)
	l["scenario.http_floor_us"], l["scenario.hit_us"], l["scenario.miss_floor_ms"] = medianUS(floor), medianUS(hit), medianMS(miss)
	scrapeScenario(ctx, s, l)
	if err := rec.stop(); err != nil {
		return nil, err
	}
	return m, s.stop()
}

// simConfigFor is the simulator configuration core builds for replicate 0 of
// a spec's first configuration, minus the database and recorders, so the
// kernel can be timed alone. Its epidemic is of the same kind, not the same
// draw: core derives its seed from the job.
func simConfigFor(net *synthpop.Network, s spec, shards int, simSeed uint64) (epihiper.Config, error) {
	pc := s.predictionConfig()
	pr := pc.Configs[0]
	model, err := pr.ApplyToModel(disease.COVID19())
	if err != nil {
		return epihiper.Config{}, err
	}
	return epihiper.Config{
		Model: model, Network: net, Days: pc.Days, Parallelism: shards, Seed: simSeed,
		Seeds: []epihiper.Seeding{{CountyFIPS: net.Persons[0].CountyFIPS, Day: 0, Count: 5}},
		Interventions: []epihiper.Intervention{
			&epihiper.VoluntaryHomeIsolation{Compliance: pr.VHICompliance, IsolationDays: 14},
			&epihiper.SchoolClosure{StartDay: pc.SHStart, EndDay: pc.SHEnd},
			&epihiper.StayAtHome{StartDay: pc.SHStart + 15, EndDay: pc.SHEnd, Compliance: pr.SHCompliance},
		},
	}, nil
}

// trace of serve-hot: the mix from one client with each op tagged by class
// and answering tier, the serving counters, and the floor probes repeated
// against a two-replica deployment.
func (h *hotWorkload) trace(ctx context.Context, e *env, l ledger) (*measured, error) {
	m := &measured{}
	s, err := h.setup(ctx, e)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	l["fidelity.train_s"] = h.trainS

	// byTier groups the fresh fidelity-routed ops by the tier that answered,
	// which the class of an auto request does not say.
	byTier := map[string][]time.Duration{}
	fresh := 0
	i := 0
	for start := time.Now(); time.Since(start) < e.seconds/2 && ctx.Err() == nil; i++ {
		r := h.request(h.warmup + i)
		id := e.tr.begin("http."+r.class, 0, i)
		_, rep, err := h.send(ctx, s, r)
		d := e.tr.end(id)
		m.book(err)
		if err != nil {
			continue
		}
		m.latency = append(m.latency, d)
		if r.repeat == 0 && r.spec.Fidelity != "" {
			fresh++
			byTier[rep.Tier] = append(byTier[rep.Tier], d)
		}
	}
	l["scenario.hit_us"] = medianUS(e.tr.durations("http.hit"))
	l["scenario.abm_miss_ms"] = medianMS(e.tr.durations("http.abm"))
	l["fidelity.emulator_ms"] = medianMS(byTier["emulator"])
	l["fidelity.metapop_ms"] = medianMS(byTier["metapop"])
	if fresh > 0 {
		l["fidelity.emulator_share"] = float64(len(byTier["emulator"])) / float64(fresh)
		l["fidelity.metapop_share"] = float64(len(byTier["metapop"])) / float64(fresh)
		l["fidelity.abm_share"] = float64(len(byTier["abm"])) / float64(fresh)
	}
	floor, _, miss := probeFloors(ctx, e, s, m)
	l["scenario.http_floor_us"], l["scenario.miss_floor_ms"] = medianUS(floor), medianMS(miss)
	mt := scrapeScenario(ctx, s, l)
	l["fidelity.refits"] = mt["epi_fidelity_refits_total"]
	if err := s.stop(); err != nil {
		return nil, err
	}

	// The coordinator: the same probes against two replicas, then a short
	// closed loop of nproc clients for its failure share and steal ratio.
	// It is probed, not a workload: at this commit two closed-loop clients
	// see a varying share of "queue full" replies (bench/README.md).
	rs, err := startServer(ctx, e.bin, e.nproc, "-replicas", "2", "-workers", "2", "-shards", "2",
		"-scale", "2000", "-queue", "64", "-recorder", "0", "-seed", pipelineSeed)
	if err != nil {
		return nil, err
	}
	defer rs.stop()
	probe := &measured{} // the coordinator's failures are its metric, not this run's
	_, hit, miss := probeFloors(ctx, e, rs, probe)
	l["replica.hit_us"], l["replica.miss_floor_ms"] = medianUS(hit), medianMS(miss)
	burst := closedLoop(ctx, e.nproc, 1, 1<<16, time.Now().Add(e.seconds/8), func(ctx context.Context, i int) error {
		_, _, err := send(ctx, rs, floorRequest(e.seed, missProbes+i))
		return err
	}, nil)
	if n := probe.attempted + burst.attempted; n > 0 {
		l["replica.fail_ratio"] = float64(probe.failed+burst.failed) / float64(n)
	}
	if mt := rs.scrape(ctx); mt["epi_replica_dispatched_total"] > 0 {
		l["replica.steals_per_dispatch"] = mt["epi_replica_steals_total"] / mt["epi_replica_dispatched_total"]
	}
	return m, rs.stop()
}

// traceWhatIf is the traced run of whatif-branch. Each sampled pair goes
// through episerve (write, then read), then through core in-process (first
// call, then the shifted stack); then come the simulator's prefix, snapshot
// and restore steps, and the content-addressed store under eviction churn.
func (w *serveWorkload) traceWhatIf(ctx context.Context, e *env, l ledger) (*measured, error) {
	m := &measured{}
	s, err := w.setup(ctx, e)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	p := pipelineFor(whatIfScale, whatIfShards)
	net, err := p.Network("VA")
	if err != nil {
		return nil, err
	}
	l["synthpop.nodes"], l["synthpop.edges"] = float64(net.NumNodes()), float64(net.NumEdges())

	var reqs []request
	for i, start := 0, time.Now(); (i%2 == 1 || time.Since(start) < e.seconds*3/4) && ctx.Err() == nil; i++ {
		r := w.request(w.warmup + i)
		reqs = append(reqs, r)
		err := func() error {
			var rep *reply
			if _, err := e.timed("http.whatif."+r.class, 0, i, func() (err error) {
				_, rep, err = w.send(ctx, s, r)
				return err
			}); err != nil {
				return err
			}
			// The first request of a pair simulates the prefix (cold), the
			// second branches from its checkpoints (warm).
			name := "core.whatif.cold"
			if i%2 == 1 {
				name = "core.whatif.warm"
			}
			var outs []*core.ScenarioOutcome
			if _, err := e.timed(name, 0, i, func() (err error) {
				outs, err = p.RunWhatIfScenariosCtx(ctx, r.spec.predictionConfig(), r.spec.whatIfs())
				return err
			}); err != nil {
				return err
			}
			for k := range outs {
				if !reflect.DeepEqual(outs[k].Confirmed.Median, rep.Scenarios[k].Confirmed.Median) {
					return fmt.Errorf("op %d scenario %d: in-process forecast differs from the served one", i, k)
				}
			}
			return nil
		}()
		m.book(err)
	}
	m.latency = append(e.tr.durations("http.whatif.write"), e.tr.durations("http.whatif.read")...)
	l["core.whatif_cold_ms"] = medianMS(e.tr.durations("core.whatif.cold"))
	l["core.whatif_warm_ms"] = medianMS(e.tr.durations("core.whatif.warm"))
	floor, hit, miss := probeFloors(ctx, e, s, m)
	l["scenario.http_floor_us"], l["scenario.hit_us"], l["scenario.miss_floor_ms"] = medianUS(floor), medianUS(hit), medianMS(miss)
	mt := scrapeScenario(ctx, s, l)
	l["castore.snapshot_hit_ratio"] = mt["epi_snapshot_hit_ratio"]
	l["castore.snapshot_evictions"] = mt["epi_snapshot_evictions_total"]
	l["castore.snapshot_mb"] = mt["epi_snapshot_cost_bytes"] / (1 << 20)
	if err := s.stop(); err != nil {
		return nil, err
	}

	// The simulator's side of a branch: run the prefix, snapshot, restore.
	var snapMB []float64
	for i := 0; i < len(reqs) && i < 16 && ctx.Err() == nil; i += 2 {
		err := func() error {
			simSeed := mix(e.seed, streamKernel, i)
			cfg, err := simConfigFor(net, reqs[i].spec, whatIfShards, simSeed)
			if err != nil {
				return err
			}
			sim, err := epihiper.New(cfg)
			if err != nil {
				return err
			}
			if _, err := e.timed("epihiper.prefix", 0, i, func() error { _, err := sim.RunPrefix(whatIfPivot); return err }); err != nil {
				return err
			}
			var snap []byte
			if _, err := e.timed("epihiper.snapshot", 0, i, func() (err error) { snap, err = sim.Snapshot(); return err }); err != nil {
				return err
			}
			snapMB = append(snapMB, float64(len(snap))/(1<<20))
			// A restored simulator takes a fresh intervention stack.
			if cfg, err = simConfigFor(net, reqs[i].spec, whatIfShards, simSeed); err != nil {
				return err
			}
			_, err = e.timed("epihiper.restore", 0, i, func() error { _, err := epihiper.NewFromSnapshot(cfg, snap); return err })
			return err
		}()
		m.book(err)
	}
	l["epihiper.prefix_ms"] = medianMS(e.tr.durations("epihiper.prefix"))
	l["epihiper.snapshot_ms"] = medianMS(e.tr.durations("epihiper.snapshot"))
	l["epihiper.restore_ms"] = medianMS(e.tr.durations("epihiper.restore"))
	l["epihiper.snapshot_mb"] = median(snapMB)

	castoreChurn(e, l)
	return m, nil
}

// castoreChurn times Put and Get on a store of 2 MB values bounded to 32 of
// them, so every Put past the bound evicts.
func castoreChurn(e *env, l ledger) {
	const valueBytes, resident, keys = 2 << 20, 32, 128
	st := castore.New(castore.WithMaxCost[[]byte](resident*valueBytes, func(v []byte) int64 { return int64(len(v)) }))
	val := make([]byte, valueBytes)
	for i := 0; i < keys; i++ {
		key := strconv.Itoa(i)
		e.timed("castore.put", 0, i, func() error { st.Put(key, val); return nil })
	}
	for i := keys - resident; i < keys; i++ {
		key := strconv.Itoa(i)
		e.timed("castore.get", 0, i, func() error { st.Get(key); return nil })
	}
	l["castore.put_ns"] = median(nsOf(e.tr.durations("castore.put")))
	l["castore.get_ns"] = median(nsOf(e.tr.durations("castore.get")))
}
