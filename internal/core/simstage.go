package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/obs"
	"repro/internal/output"
	"repro/internal/popdb"
	"repro/internal/synthpop"
)

// The simulation stage. Calibration, prediction, counter-factual and what-if
// differ in how they design cells and what they aggregate; all of them hand
// <cell, region, replicate> jobs to this one stage (Figures 3–5). simConfig
// is the only place a job becomes an epihiper.Config and fanOut the only
// worker pool, so a from-scratch run, a what-if prefix walk and a what-if
// branch of one (cell, replicate) cannot seed, configure or record
// differently.

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

// SimOutput couples a job with its aggregated result.
type SimOutput struct {
	Job    SimJob
	Result *epihiper.Result
	Agg    *output.CountyAggregator
	// RawBytes estimates the individual-level output size at 1:1 scale.
	RawBytes int64
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
// and the pipeline's parallelism, database and metrics registry. The caller
// chooses the intervention stack and the recorder, which is all that differs
// between a full run, a what-if prefix and a what-if branch.
func (p *Pipeline) simConfig(job SimJob, net *synthpop.Network, db *popdb.Server,
	ivs []epihiper.Intervention, rec epihiper.Recorder) (cfg epihiper.Config, err error) {
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
		Parallelism:   p.Parallelism,
		Seed:          p.Seed ^ jobSeed(job),
		Seeds:         seeds,
		Interventions: ivs,
		DB:            db,
		Recorder:      rec,
		Metrics:       p.metrics,
	}, nil
}

// RunSim executes one simulation job against the pipeline's substrates.
func (p *Pipeline) RunSim(job SimJob, shStart, shEnd int) (*SimOutput, error) {
	net, err := p.Network(job.State)
	if err != nil {
		return nil, err
	}
	db, err := p.DB(job.State)
	if err != nil {
		return nil, err
	}
	agg := output.NewCountyAggregator(net, job.Days)
	cfg, err := p.simConfig(job, net, db, interventionsFor(job.Params, shStart, shEnd), agg)
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
	return &SimOutput{
		Job: job, Result: res, Agg: agg,
		RawBytes: res.Transitions() * output.RawBytesPerTransition * int64(p.Scale),
	}, nil
}

// simWorkers bounds the job-level fan-out; each simulation additionally uses
// p.Parallelism units, mirroring replicate-level × rank-level parallelism.
const simWorkers = 4

// fanOut calls run(ctx, i) once per job on at most simWorkers goroutines,
// each call inside a "sim.job" span, and returns when all of them have.
// Cancelling ctx stops the dispatch and keeps workers from starting a job
// already handed to them; in-flight simulations finish (one simulation is
// the cancellation granularity) and ctx.Err() is returned. Otherwise the
// lowest-indexed failure is returned, wrapped with its index.
func fanOut(ctx context.Context, jobs []SimJob, run func(ctx context.Context, i int) error) error {
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
				errs[i] = run(jctx, i)
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
