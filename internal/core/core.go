// Package core is the workflow engine — the paper's primary contribution:
// the real-time epidemiological pipeline that every night generates
// simulation configurations on the home cluster, ships them to the remote
// super-computing cluster, schedules and runs thousands of EpiHiper
// simulations under the 10-hour window, aggregates individual-level output
// to county time series, ships the summaries home, and feeds calibration,
// prediction and counter-factual analyses (Figures 1–5).
//
// The pipeline object owns the shared substrates: per-region synthetic
// networks (generated once and cached, like the paper's static partitions),
// population database servers instantiated from snapshots, the transfer
// ledger between the two sites, and the simulated cluster specs.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/castore"
	"repro/internal/cluster"
	"repro/internal/disease"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/popdb"
	"repro/internal/synthpop"
	"repro/internal/transfer"
)

// Pipeline is the two-site workflow context.
type Pipeline struct {
	// Scale is the population down-scaling factor (1:Scale).
	Scale int
	// Seed drives all randomness.
	Seed uint64
	// Parallelism is the per-simulation processing-unit count.
	Parallelism int
	// DBConnBound is B(T[r]), the per-region database connection bound.
	DBConnBound int

	Home   cluster.Spec
	Remote cluster.Spec
	Window cluster.Window
	Ledger *transfer.Ledger
	// FaultCounters accumulates injected/recovered/shed counts across every
	// night run on this pipeline; each night's fault model reports into it.
	FaultCounters *faults.Counters

	mu       sync.Mutex
	networks map[string]*synthpop.Network
	dbs      map[string]*popdb.Server

	// snapshots is the content-addressed checkpoint store of the what-if
	// workflow: keys are SHA-256 of (pipeline fingerprint, prefix spec,
	// tick); values are serialized simulator checkpoints shared by every
	// scenario branching from the same history.
	snapshots *castore.Store[*whatIfCheckpoint]

	// metrics is the registry RegisterMetrics was given; every simulation
	// the pipeline builds publishes the simulator's series into it.
	metrics *obs.Registry
}

// Option mutates a Pipeline during construction.
type Option func(*Pipeline)

// WithScale sets the population scale.
func WithScale(s int) Option { return func(p *Pipeline) { p.Scale = s } }

// WithParallelism sets the per-simulation processing units.
func WithParallelism(n int) Option { return func(p *Pipeline) { p.Parallelism = n } }

// WithSnapshotCacheBytes bounds the what-if checkpoint store. Zero or
// negative disables snapshot caching entirely (every what-if run
// re-simulates its shared prefix once per call, still sharing it across the
// call's scenarios).
func WithSnapshotCacheBytes(n int64) Option {
	return func(p *Pipeline) {
		if n <= 0 {
			p.snapshots = nil
			return
		}
		p.snapshots = castore.New(castore.WithMaxCost[*whatIfCheckpoint](n, checkpointCost))
	}
}

// DefaultSnapshotCacheBytes bounds the checkpoint store when no option is
// given (~256 MB of serialized simulator state).
const DefaultSnapshotCacheBytes = int64(256 << 20)

// NewPipeline builds a pipeline with the paper's site configuration:
// Rivanna-like home cluster, Bridges-like remote cluster, 10pm–8am window.
func NewPipeline(seed uint64, opts ...Option) *Pipeline {
	p := &Pipeline{
		Scale:         20000,
		Seed:          seed,
		Parallelism:   2,
		DBConnBound:   16,
		Home:          cluster.Rivanna(),
		Remote:        cluster.Bridges(),
		Window:        cluster.NightlyWindow(),
		Ledger:        transfer.NewLedger(transfer.DefaultLink()),
		FaultCounters: &faults.Counters{},
		networks:      map[string]*synthpop.Network{},
		dbs:           map[string]*popdb.Server{},
		snapshots: castore.New(
			castore.WithMaxCost[*whatIfCheckpoint](DefaultSnapshotCacheBytes, checkpointCost)),
	}
	for _, o := range opts {
		o(p)
	}
	p.Ledger.WindowSeconds = p.Window.Seconds()
	return p
}

// RegisterMetrics exposes the pipeline's transfer ledger and fault counters
// on a registry — the one call a binary needs to put the epi_transfer_* and
// epi_faults_* series on its /metrics endpoint or end-of-run dump — and
// remembers the registry, so that the simulations run afterwards add the
// simulator's own series (epi_shards, the epihiper.shard.* phase histograms,
// the epi_kernel_* work counters) and each region materialised afterwards
// reports its size (epi_network_bytes, epi_network_half_edges). Call it
// before running workflows.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	p.metrics = reg
	transfer.RegisterMetrics(reg, p.Ledger)
	p.FaultCounters.Register(reg)
	if p.snapshots != nil {
		p.snapshots.RegisterMetrics(reg, "epi_snapshot")
	}
}

// Fingerprint identifies the pipeline parameters that shape simulation
// results: two pipelines may share cached results or checkpoints only when
// their fingerprints match.
func (p *Pipeline) Fingerprint() string {
	return fmt.Sprintf("seed=%d;scale=%d;par=%d;dbb=%d;nodes=%d;window=%g",
		p.Seed, p.Scale, p.Parallelism, p.DBConnBound, p.Remote.Nodes, p.Window.Seconds())
}

// Network returns the cached contact network for a region, generating it on
// first use (the paper generates networks once and reuses static
// partitions; the 2 TB one-time transfer is accounted on first
// materialization).
func (p *Pipeline) Network(state string) (*synthpop.Network, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.networks[state]; ok {
		return n, nil
	}
	st, err := synthpop.StateByCode(state)
	if err != nil {
		return nil, err
	}
	cfg := synthpop.DefaultConfig(p.Seed)
	cfg.Scale = p.Scale
	net, err := synthpop.Generate(st, cfg)
	if err != nil {
		return nil, err
	}
	p.networks[state] = net
	if p.metrics != nil {
		p.metrics.Gauge(`epi_network_bytes{state="` + state + `"}`).Set(float64(net.Bytes()))
		p.metrics.Gauge(`epi_network_half_edges{state="` + state + `"}`).Set(float64(2 * net.NumEdges()))
	}
	// One-time staging of traits + network to the remote site (Table II).
	if _, err := p.Ledger.Move(context.Background(), 0, transfer.HomeToRemote, "network-staging",
		net.PersonBytes()+net.EdgeBytes()); err != nil {
		return nil, err
	}
	return net, nil
}

// DB returns the population database server for a region, instantiating it
// from a snapshot on first use.
func (p *Pipeline) DB(state string) (*popdb.Server, error) {
	net, err := p.Network(state)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if db, ok := p.dbs[state]; ok {
		return db, nil
	}
	// Snapshot round-trip: the paper instantiates DB snapshots at run
	// time to speed nightly start-up.
	db, err := popdb.NewServer(state, net.Persons, p.DBConnBound)
	if err != nil {
		return nil, err
	}
	snap, err := db.TakeSnapshot()
	if err != nil {
		return nil, err
	}
	db, err = popdb.FromSnapshot(snap, p.DBConnBound)
	if err != nil {
		return nil, err
	}
	p.dbs[state] = db
	return db, nil
}

// Params is one model configuration (cell) of a calibration or prediction
// design: the four parameters of the VA case study (Figure 15).
type Params struct {
	TAU           float64 // disease transmissibility ω
	SYMP          float64 // symptomatic fraction (Exposed → Presymptomatic prob)
	SHCompliance  float64 // stay-at-home compliance
	VHICompliance float64 // voluntary home isolation compliance
}

// ApplyToModel clones the COVID model with TAU and SYMP applied: TAU
// replaces the global transmissibility; SYMP rebalances the Exposed branch
// between the symptomatic and asymptomatic tracks.
func (pr Params) ApplyToModel(base *disease.Model) (*disease.Model, error) {
	if pr.TAU < 0 {
		return nil, fmt.Errorf("core: negative TAU %g", pr.TAU)
	}
	if pr.SYMP < 0 || pr.SYMP > 1 {
		return nil, fmt.Errorf("core: SYMP %g outside [0,1]", pr.SYMP)
	}
	m := base.Clone()
	m.Transmissibility = pr.TAU
	ts := m.Transitions(disease.Exposed)
	for i := range ts {
		var prob float64
		switch ts[i].To {
		case disease.Presymptomatic:
			prob = pr.SYMP
		case disease.Asymptomatic:
			prob = 1 - pr.SYMP
		default:
			continue
		}
		for ag := range ts[i].Prob {
			ts[i].Prob[ag] = prob
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: params %+v produce invalid model: %w", pr, err)
	}
	return m, nil
}
