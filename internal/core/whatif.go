package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/obs"
	"repro/internal/output"
	"repro/internal/popdb"
	"repro/internal/synthpop"
)

// WhatIf is a future scenario the prediction workflow layers on top of the
// as-is calibrated configurations — "what if the stay-at-home order is
// lifted earlier; what if the mitigation compliance rate increases; what
// if testing and contact tracing are improved".
//
// Scenario semantics are counterfactual from a pivot date: history up to
// PivotDay is the shared as-is baseline (same seeds, same baseline
// intervention stack, common random numbers across scenarios), and the
// scenario's modified stack takes over at the pivot with the baseline
// stack's accumulated state handed across — a scenario can change the
// future, never the past. The shared prefix is what the workflow simulates
// once and snapshots; every scenario branches from the checkpoint.
type WhatIf struct {
	Name string
	// PivotDay is the day the scenario's interventions take effect; days
	// before it replay the as-is baseline. Zero or negative defaults to
	// the prediction's SHStart.
	PivotDay int
	// SHEndShift moves the stay-at-home expiry by this many days
	// (negative = lifted earlier).
	SHEndShift int
	// ComplianceScale multiplies SH and VHI compliance (>1 = better
	// adherence, capped at 1).
	ComplianceScale float64
	// AddTesting layers a TA intervention with the given daily detection.
	AddTesting float64
	// AddTracing layers contact tracing at the given distance (0 = none).
	AddTracing      int
	TraceDetectProb float64
}

// StandardWhatIfs returns the paper's three example scenarios.
func StandardWhatIfs() []WhatIf {
	return []WhatIf{
		{Name: "sh-lifted-2w-early", SHEndShift: -14},
		{Name: "compliance-up-25pct", ComplianceScale: 1.25},
		{Name: "test-and-trace", AddTesting: 0.3, AddTracing: 1, TraceDetectProb: 0.4},
	}
}

// pivot resolves the scenario's effective pivot day for a prediction
// config: default SHStart, clamped into [1, Days].
func (w WhatIf) pivot(cfg PredictionConfig) int {
	d := w.PivotDay
	if d <= 0 {
		d = cfg.SHStart
	}
	if d < 1 {
		d = 1
	}
	if d > cfg.Days {
		d = cfg.Days
	}
	return d
}

// apply builds the scenario's intervention stack for one configuration.
func (w WhatIf) apply(pr Params, shStart, shEnd int) (Params, []epihiper.Intervention) {
	scaled := pr
	if w.ComplianceScale > 0 {
		scaled.SHCompliance = minf(1, pr.SHCompliance*w.ComplianceScale)
		scaled.VHICompliance = minf(1, pr.VHICompliance*w.ComplianceScale)
	}
	end := shEnd + w.SHEndShift
	if end < shStart {
		end = shStart
	}
	ivs := []epihiper.Intervention{
		&epihiper.VoluntaryHomeIsolation{Compliance: scaled.VHICompliance, IsolationDays: 14},
		&epihiper.SchoolClosure{StartDay: shStart, EndDay: end},
		&epihiper.StayAtHome{StartDay: shStart + 15, EndDay: end, Compliance: scaled.SHCompliance},
	}
	if w.AddTesting > 0 {
		ivs = append(ivs, &epihiper.TestAndIsolate{DailyDetectRate: w.AddTesting, IsolationDays: 14})
	}
	if w.AddTracing > 0 {
		ivs = append(ivs, &epihiper.ContactTracing{
			Distance: w.AddTracing, DetectProb: w.TraceDetectProb,
			TraceCompliance: 0.8, IsolationDays: 14,
		})
	}
	return scaled, ivs
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ScenarioOutcome is one what-if scenario's forecast next to the as-is
// baseline.
type ScenarioOutcome struct {
	Scenario  WhatIf
	Confirmed Forecast
	Deaths    Forecast
	// Sims lists the per-(cell, replicate) outputs behind the bands, in job
	// order — consumers (e.g. the fidelity router's training harvest) can
	// regroup them by Job.Cell.
	Sims []*SimOutput
}

// whatIfCheckpoint is one cached shared-prefix state: the serialized
// simulator snapshot at a pivot tick, the partial Result up to it, and the
// transition log to replay into each branch's aggregator. All three are
// read-only once stored — branches deep-copy on use (RunSuffix clones the
// Result; Restore fills branch-owned slabs; the log is only replayed).
type whatIfCheckpoint struct {
	tick int
	snap []byte
	res  *epihiper.Result
	log  []output.Transition
}

// checkpointCost approximates a checkpoint's resident bytes for the
// store's cost bound.
func checkpointCost(cp *whatIfCheckpoint) int64 {
	resBytes := int64(len(cp.res.Daily)) * int64(disease.NumStates) * 8
	return int64(len(cp.snap)) + int64(len(cp.log))*20 + resBytes
}

// snapshotKey content-addresses a shared prefix: SHA-256 over the pipeline
// fingerprint, the normalized prefix spec (everything that shapes the
// pre-pivot simulation), and the pivot tick.
func (p *Pipeline) snapshotKey(cfg PredictionConfig, job SimJob, tick int) string {
	pr := job.Params
	spec := fmt.Sprintf("state=%s;days=%d;shstart=%d;shend=%d;cell=%d;rep=%d;tau=%g;symp=%g;shc=%g;vhic=%g",
		cfg.State, cfg.Days, cfg.SHStart, cfg.SHEnd, job.Cell, job.Replicate,
		pr.TAU, pr.SYMP, pr.SHCompliance, pr.VHICompliance)
	h := sha256.New()
	h.Write([]byte(p.Fingerprint()))
	h.Write([]byte{0})
	h.Write([]byte(spec))
	h.Write([]byte{0})
	fmt.Fprintf(h, "tick=%d", tick)
	return hex.EncodeToString(h.Sum(nil))
}

// RunWhatIfScenariosCtx simulates the expanded configurations and returns
// one forecast per scenario, combined with the as-is predictions the caller
// already holds. Each scenario runs every configuration with the given
// replicates; the shared pre-pivot prefix of each (cell, replicate) is
// simulated once and every scenario branches from its snapshot. Work is
// dispatched in simulation-sized units and the dispatcher checks ctx, so
// cancellation costs at most the in-flight simulations.
func (p *Pipeline) RunWhatIfScenariosCtx(ctx context.Context, cfg PredictionConfig, scenarios []WhatIf) ([]*ScenarioOutcome, error) {
	if len(cfg.Configs) == 0 {
		return nil, fmt.Errorf("core: what-if analysis needs calibrated configs")
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: no scenarios given")
	}
	cfg.fillDefaults(5)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.whatif",
		obs.String("state", cfg.State),
		obs.Int("scenarios", int64(len(scenarios))),
		obs.Int("configs", int64(len(cfg.Configs))),
		obs.Int("replicates", int64(cfg.Replicates)))
	defer sp.End()
	net, err := p.Network(cfg.State)
	if err != nil {
		return nil, err
	}
	db, err := p.DB(cfg.State)
	if err != nil {
		return nil, err
	}

	// The sorted unique pivot ticks every (cell, replicate) prefix walk
	// must checkpoint.
	var pivots []int
	for _, sc := range scenarios {
		pivots = append(pivots, sc.pivot(cfg))
	}
	slices.Sort(pivots)
	pivots = slices.Compact(pivots)

	// Phase 1: walk each (cell, replicate)'s as-is prefix once, checkpointing
	// at every pivot tick not already cached. checkpoints[(cell, rep)][tick]
	// stays pinned locally for the duration of the call so LRU eviction
	// cannot drop a checkpoint between the prefix walk and the branches.
	var prefixes []SimJob
	for ci, pr := range cfg.Configs {
		for rep := 0; rep < cfg.Replicates; rep++ {
			prefixes = append(prefixes, SimJob{State: cfg.State, Cell: ci, Replicate: rep, Params: pr, Days: cfg.Days})
		}
	}
	checkpoints := make([]map[int]*whatIfCheckpoint, len(prefixes))
	err = fanOut(ctx, prefixes, func(ctx context.Context, i int) (err error) {
		checkpoints[i], err = p.ensureCheckpoints(ctx, cfg, net, db, prefixes[i], pivots)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: branch every scenario from its checkpoint. Outputs land in
	// (scenario, cell, replicate) order regardless of scheduling.
	branches := make([]SimJob, 0, len(scenarios)*len(prefixes))
	for range scenarios {
		branches = append(branches, prefixes...)
	}
	sims := make([]*SimOutput, len(branches))
	err = fanOut(ctx, branches, func(_ context.Context, i int) error {
		sc, job := scenarios[i/len(prefixes)], branches[i]
		cp := checkpoints[i%len(prefixes)][sc.pivot(cfg)]
		var ivs []epihiper.Intervention
		job.Params, ivs = sc.apply(job.Params, cfg.SHStart, cfg.SHEnd)
		agg := output.NewCountyAggregator(net, cfg.Days)
		simCfg, err := p.simConfig(job, net, db, ivs, agg)
		if err != nil {
			return err
		}
		for _, t := range cp.log {
			agg.Record(int(t.Tick), t.PID, t.From, t.To, t.Infector)
		}
		sim, err := epihiper.NewFromSnapshot(simCfg, cp.snap)
		if err != nil {
			return err
		}
		res, err := sim.RunSuffix(cp.res)
		if err != nil {
			return err
		}
		sims[i] = &SimOutput{Job: job, Result: res, Agg: agg}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]*ScenarioOutcome, 0, len(scenarios))
	for si, sc := range scenarios {
		so := &ScenarioOutcome{Scenario: sc, Sims: sims[si*len(prefixes) : (si+1)*len(prefixes) : (si+1)*len(prefixes)]}
		so.Confirmed = ensembleBand(so.Sims, cfg.Days, func(s *SimOutput) []float64 {
			return s.Agg.StateConfirmedCumulative()
		})
		so.Deaths = ensembleBand(so.Sims, cfg.Days, func(s *SimOutput) []float64 {
			return s.Agg.StateCumulative(disease.Dead)
		})
		out = append(out, so)
	}
	return out, nil
}

// ensureCheckpoints returns the as-is prefix checkpoints of one
// (cell, replicate) job at every pivot tick, simulating only the ticks the
// content-addressed store does not already hold: the walk resumes from the
// deepest cached checkpoint at or below the first missing tick and
// checkpoints forward.
func (p *Pipeline) ensureCheckpoints(ctx context.Context, cfg PredictionConfig,
	net *synthpop.Network, db *popdb.Server, job SimJob, pivots []int,
) (map[int]*whatIfCheckpoint, error) {
	out := make(map[int]*whatIfCheckpoint, len(pivots))
	var missing []int
	for _, tick := range pivots {
		key := p.snapshotKey(cfg, job, tick)
		if p.snapshots != nil {
			if cp, ok := p.snapshots.Get(key); ok {
				obs.Event(ctx, "snapshot.hit",
					obs.Int("cell", int64(job.Cell)), obs.Int("replicate", int64(job.Replicate)),
					obs.Int("tick", int64(tick)), obs.String("key", key[:16]))
				out[tick] = cp
				continue
			}
			p.snapshots.RecordMiss()
		}
		obs.Event(ctx, "snapshot.miss",
			obs.Int("cell", int64(job.Cell)), obs.Int("replicate", int64(job.Replicate)),
			obs.Int("tick", int64(tick)), obs.String("key", key[:16]))
		missing = append(missing, tick)
	}
	if len(missing) == 0 {
		return out, nil
	}
	// Resume from the deepest cached checkpoint below the first gap.
	var base *whatIfCheckpoint
	for _, tick := range pivots {
		if tick >= missing[0] {
			break
		}
		if cp := out[tick]; cp != nil {
			base = cp
		}
	}
	log := &output.TransitionLog{}
	simCfg, err := p.simConfig(job, net, db, interventionsFor(job.Params, cfg.SHStart, cfg.SHEnd), log)
	if err != nil {
		return nil, err
	}
	var sim *epihiper.Sim
	var res *epihiper.Result
	if base != nil {
		log.Entries = slices.Clone(base.log)
		sim, err = epihiper.NewFromSnapshot(simCfg, base.snap)
		res = base.res
	} else {
		sim, err = epihiper.New(simCfg)
	}
	if err != nil {
		return nil, err
	}
	for _, tick := range missing {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err = sim.RunSegment(res, tick)
		if err != nil {
			return nil, err
		}
		snap, err := sim.Snapshot()
		if err != nil {
			return nil, err
		}
		cp := &whatIfCheckpoint{tick: tick, snap: snap, res: res, log: slices.Clone(log.Entries)}
		out[tick] = cp
		if p.snapshots != nil {
			p.snapshots.Put(p.snapshotKey(cfg, job, tick), cp)
		}
	}
	return out, nil
}
