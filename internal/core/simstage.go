package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/obs"
	"repro/internal/popdb"
	"repro/internal/synthpop"
)

// The simulation stage. Calibration, prediction, counter-factual and what-if
// differ in how they design cells and what they aggregate; all of them hand
// <cell, region, replicate> jobs to this one stage (Figures 3–5). simConfig
// is the only place a job becomes an epihiper.Config and fanOut the only
// worker pool, so a from-scratch run and a what-if prefix walk of one
// (cell, replicate) cannot seed or configure differently, and a what-if
// branch forks the prefix walk's own sim.
//
// Jobs come before shards. fanOut runs up to simWorkers jobs at once and
// gives each simulation only the CPUs the other jobs leave idle
// (jobShards), as the paper sizes each task's node count so that tasks ×
// nodes fit the allocation. Results are bit-identical at any shard count;
// shards only cost barriers and cross-shard messages once the CPUs are busy
// with jobs.

// SimJob is one simulation instance (one replicate of one cell).
type SimJob struct {
	State     string
	Cell      int
	Replicate int
	Params    Params
	Days      int
	// SeedCases places this many initial infections in each of the
	// region's most populous SeedCounties counties.
	SeedCases    int
	SeedCounties int
}

// SimOutput couples a job with its result. Every state-level curve reads
// Result.Daily.
type SimOutput struct {
	Job    SimJob
	Result *epihiper.Result
}

// StateCumulative returns the region's cumulative entries into the given
// states, day by day, summed from the Result's daily totals.
func (o *SimOutput) StateCumulative(states ...disease.State) []float64 {
	out := make([]float64, len(o.Result.Daily))
	var acc int64
	for d, row := range o.Result.Daily {
		for _, st := range states {
			acc += int64(row[st])
		}
		out[d] = float64(acc)
	}
	return out
}

// ConfirmedCumulative returns the region's cumulative confirmed cases —
// entries into any medically-attended state (Attended, Attended(H),
// Attended(D)), the calibration target of the VA case study — day by day.
func (o *SimOutput) ConfirmedCumulative() []float64 {
	return o.StateCumulative(disease.Attended, disease.AttendedH, disease.AttendedD)
}

// jobSeed derives a deterministic per-job seed.
func jobSeed(job SimJob) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range job.State {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= uint64(uint32(job.Cell)) * 0x9E3779B97F4A7C15
	h ^= uint64(uint32(job.Replicate)) * 0xC2B2AE3D27D4EB4F
	return h
}

// topCounties returns the region's n most populous counties, largest first
// (ties by ascending FIPS).
func topCounties(net *synthpop.Network, n int) []int32 {
	ix := net.Counties()
	order := make([]int, len(ix.FIPS))
	for i := range order {
		order[i] = i
	}
	// FIPS ascends with the ordinal, so a stable sort by size keeps the tie
	// order.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ix.Size[b], ix.Size[a]) })
	if n < len(order) {
		order = order[:n]
	}
	out := make([]int32, len(order))
	for i, ord := range order {
		out[i] = ix.FIPS[ord]
	}
	return out
}

// simConfig builds the simulator configuration of one job over the region's
// substrates: the model from the job's parameters, the per-job seed, day-0
// seeding of the most populous counties (by default 5 cases in 1 county),
// the shard count its fan-out chose (jobShards), and the pipeline's
// database and metrics registry. The caller chooses the intervention stack,
// which is all that differs between a full run and a what-if prefix. No
// workflow records the individual transitions, so the configuration has no
// recorder.
func (p *Pipeline) simConfig(job SimJob, net *synthpop.Network, db *popdb.Server,
	ivs []epihiper.Intervention, shards int) (cfg epihiper.Config, err error) {
	if job.Days <= 0 {
		return cfg, fmt.Errorf("core: job %+v has no horizon", job)
	}
	model, err := job.Params.ApplyToModel(disease.COVID19())
	if err != nil {
		return cfg, err
	}
	seedCounties := job.SeedCounties
	if seedCounties <= 0 {
		seedCounties = 1
	}
	seedCases := job.SeedCases
	if seedCases <= 0 {
		seedCases = 5
	}
	var seeds []epihiper.Seeding
	for _, c := range topCounties(net, seedCounties) {
		seeds = append(seeds, epihiper.Seeding{CountyFIPS: c, Day: 0, Count: seedCases})
	}
	return epihiper.Config{
		Model:         model,
		Network:       net,
		Days:          job.Days,
		Parallelism:   shards,
		Seed:          p.Seed ^ jobSeed(job),
		Seeds:         seeds,
		Interventions: ivs,
		DB:            db,
		Metrics:       p.metrics,
	}, nil
}

// RunSim executes one simulation job against the pipeline's substrates on
// the given number of shards.
func (p *Pipeline) RunSim(job SimJob, shStart, shEnd, shards int) (*SimOutput, error) {
	net, err := p.Network(job.State)
	if err != nil {
		return nil, err
	}
	db, err := p.DB(job.State)
	if err != nil {
		return nil, err
	}
	cfg, err := p.simConfig(job, net, db, interventionsFor(job.Params, shStart, shEnd), shards)
	if err != nil {
		return nil, err
	}
	sim, err := epihiper.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &SimOutput{Job: job, Result: res}, nil
}

// simWorkers bounds the job-level fan-out. It bounds memory — every job in
// flight holds a simulator's per-person slabs — not CPU: jobShards fits the
// shards of each job to the CPUs.
const simWorkers = 4

// jobShards is the shard count of every simulation in a fan-out of n jobs:
// the k = min(simWorkers, n) jobs that run at once share GOMAXPROCS CPUs, so
// each runs at most GOMAXPROCS/k shards, never more than p.Parallelism and
// never fewer than one. A single job keeps min(p.Parallelism, GOMAXPROCS).
func (p *Pipeline) jobShards(n int) int {
	k := max(1, min(simWorkers, n))
	return max(1, min(p.Parallelism, runtime.GOMAXPROCS(0)/k))
}

// fanOut calls run(ctx, i, shards) once per job on at most simWorkers
// goroutines, each call inside a "sim.job" span, with the shard count
// jobShards picks for the fan-out, and returns when all of them have.
// Cancelling ctx stops the dispatch and keeps workers from starting a job
// already handed to them; in-flight simulations finish (one simulation is
// the cancellation granularity) and ctx.Err() is returned. Otherwise the
// lowest-indexed failure is returned, wrapped with its index.
func (p *Pipeline) fanOut(ctx context.Context, jobs []SimJob, run func(ctx context.Context, i, shards int) error) error {
	shards := p.jobShards(len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(simWorkers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue
				}
				jctx, sp := obs.StartSpan(ctx, "sim.job",
					obs.String("state", jobs[i].State),
					obs.Int("cell", int64(jobs[i].Cell)),
					obs.Int("replicate", int64(jobs[i].Replicate)))
				errs[i] = run(jctx, i, shards)
				sp.End()
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: job %d: %w", i, err)
		}
	}
	return nil
}
