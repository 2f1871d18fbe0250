// Package epihiper implements the agent-based discrete-time epidemic
// simulator of the paper (EpiHiper, described in companion publications and
// reproduced here from the paper's Appendices A, B and D): probabilistic
// disease transmission between nodes of a contact network, PTTS disease
// progression within each infected individual, and externally-triggered
// interventions.
//
// Parallel execution over network partitions stands in for the C++/MPI
// implementation: the network is split with the paper's edge-balanced
// partitioner and each partition is owned by one worker goroutine
// ("processing unit"). Results are bit-for-bit independent of the number of
// processing units because every stochastic decision draws from an RNG
// keyed on (seed, node, tick, phase) rather than on a worker-local stream.
package epihiper

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/disease"
	"repro/internal/obs"
	"repro/internal/popdb"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// NoInfector marks a state transition not caused by disease transmission.
const NoInfector int32 = -1

// Recorder receives every individual state transition, in deterministic
// order (by tick, then by person ID). This is the paper's per-line EpiHiper
// output: tick, person, exit state, and the infector for transmissions.
type Recorder interface {
	Record(tick int, pid int32, from, to disease.State, infector int32)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(tick int, pid int32, from, to disease.State, infector int32)

// Record implements Recorder.
func (f RecorderFunc) Record(tick int, pid int32, from, to disease.State, infector int32) {
	f(tick, pid, from, to, infector)
}

// MultiRecorder fans transitions out to several recorders.
type MultiRecorder []Recorder

// Record implements Recorder.
func (m MultiRecorder) Record(tick int, pid int32, from, to disease.State, infector int32) {
	for _, r := range m {
		r.Record(tick, pid, from, to, infector)
	}
}

// Seeding places initial infections in a county: Count persons of the
// county enter the model's exposed state on Day.
type Seeding struct {
	CountyFIPS int32
	Day        int
	Count      int
}

// Config assembles one simulation instance (one replicate of one cell).
type Config struct {
	Model   *disease.Model
	Network *synthpop.Network
	// Days is the number of ticks to simulate (1 tick = 1 day).
	Days int
	// Parallelism is the number of processing units. Zero means 1.
	Parallelism int
	// PartitionTolerance is the ε of the paper's partitioner.
	PartitionTolerance float64
	Seed               uint64
	Seeds              []Seeding
	// SeedPersons infects these exact persons at day 0, in addition to
	// any county-level Seeds — useful for controlled experiments like
	// the Figure 11 five-person network.
	SeedPersons []int32
	// Interventions is the simulation's stack. Several interventions are
	// stateful (StayAtHome retains its compliant set, PulsingShutdown its
	// pulse state), so concurrent simulations must not share instances.
	Interventions []Intervention
	// DB optionally supplies the population at start-up, exercising the
	// bounded-connection database path of the production workflow. When
	// nil, the network's own person table is used directly.
	DB *popdb.Server
	// Recorder receives the transition stream; may be nil.
	Recorder Recorder
	// Metrics optionally receives the simulator's observability series:
	// the epi_shards gauge, the per-phase wall-clock histograms
	// epi_span_seconds{span="epihiper.shard.<phase>"} and the
	// epi_kernel_*_total work counters, published once per run segment.
	// Nil disables publication (the kernel never touches the registry from
	// its hot loop either way).
	Metrics *obs.Registry
}

// Sim is the mutable simulation state (the paper's "system state":
// attributes of nodes and edges, simulation time, user-defined variables).
type Sim struct {
	cfg   Config
	model *disease.Model
	net   *synthpop.Network
	// csr is the flat adjacency the kernel scans: offsets plus contiguous
	// half-edge columns, whose record codes index the T·w_e and fixed-point
	// T·w_e tables (synthpop.CSR).
	csr *synthpop.CSR
	// ageBand is the network's per-person Table III age band, the one
	// person trait a transition reads.
	ageBand []disease.AgeGroup

	day int

	health     []disease.State
	nextState  []disease.State
	switchTick []int32 // tick at which the pending progression fires; -1 none

	infectivityScale    []float32
	susceptibilityScale []float32

	// ctxMask holds per-person enabled-context bits; globalCtxMask gates
	// contexts network-wide (school closure). A contact is live when both
	// endpoints' contexts pass their masks and the global mask.
	ctxMask       []uint8
	globalCtxMask uint8
	isolatedUntil []int32 // person isolated (home contacts only) while day < value

	// ctxWeight scales the effective edge weight per context (Table V's
	// writable edge weight, expressed at context granularity): mask
	// mandates and distancing rules reduce transmission in a context
	// without removing the contacts.
	ctxWeight [synthpop.NumContexts]float64

	// Vars are the user-defined named variables of the EpiHiper system
	// state (Table V), read and written by intervention triggers.
	Vars map[string]float64

	parts []synthpop.Partition
	ivRNG *stats.RNG

	// shards are the processing units of the shard-owned engine (see
	// shard.go): one per partition, each privately owning its contiguous
	// 64-aligned node range of every per-person slab plus its own
	// progression calendar. shardStarts[i] = shards[i].first; ownerWord
	// maps each 64-node bitset word to its owning shard (alignment makes
	// ownership word-constant), backing the O(1) ownerOf on the
	// per-neighbor path. curPhase is written by the coordinator
	// between barriers and read by the workers (ordered by the jobs
	// channel); omegaDirty/maskDirtyAll flag the pending O(n) table
	// rebuilds the upkeep phase splits across shards; phaseSecs
	// accumulates per-phase wall-clock, and work the current run segment's
	// work counts, for the obs registry.
	//
	// serial is the shard of the serial stages (seeding, scheduled actions,
	// snapshot restore). It owns every node, so its neighbor bumps write
	// every word directly and its outbox stays empty; foldSerial folds its
	// counters and events the way mergeTick folds a real shard's. Its work
	// counts are never folded: a serial bump is not kernel work.
	shards      []shard
	serial      shard
	shardStarts []int32
	ownerWord   []uint16
	curPhase    int
	omegaDirty  bool
	phaseSecs   [numPhases]float64
	work        kernelWork

	// ranTo is the number of completed days: RunPrefix/RunSuffix segment the
	// run at day boundaries and resume from here; Run is the single segment
	// [0, Days).
	ranTo int

	// Bookkeeping for memory accounting and summaries.
	currentByState [disease.NumStates]int
	cumByState     [disease.NumStates]int64
	scheduled      []scheduledAction
	memTrace       []int64
	dynamicBytes   int64

	// todayEvents collects the transitions of the current tick, in
	// deterministic order; interventions and the daily accounting read it.
	todayEvents []TransitionEvent

	// nodeTraits holds the user-defined per-person attributes of
	// Table V (nodeTrait[traitName]); allocated lazily per trait.
	nodeTraits map[string][]float64

	// infNbr[v] packs node v's infectious-contact state into one word, so a
	// neighbor's change of infectiousness costs v one read-modify-write:
	// the low nbrCountBits bits count v's currently infectious neighbors,
	// the bits above hold Σ synthpop.QuantTW(T·w) over the contacts with
	// them — the fixed-point, never-too-small image of the ΣT·w the
	// transmission scan would find. Both are maintained incrementally on
	// every such transition (O(degree)), by v's owner shard only. The
	// count gates the at-risk frontier and ends a row scan early; the sum
	// is the thinning bound. It is built from the T·w of half-edge u→v and
	// consumed against the T·w of v→u, so it rests on the network's
	// mirrored-contact invariant (synthpop.Network.Validate).
	infNbr []uint64

	// Cached tables the transmission kernel reads (read-only during the
	// transmit phase; written by the serial phases and, for its own nodes,
	// by each shard's upkeep and mutate phases):
	// effInf[u] = ω · ι(health[u]) · infectivityScale[u] is the effective
	// infectivity a contact of u sees, and effMaskT[u] caches effMask(u).
	// With them, the inner edge loop prices an infectious contact with a
	// few table loads and multiplies. effInfBits[u/64] has
	// bit u%64 set iff effInf[u] != 0: the bitset stays cache-resident at
	// any network scale, so the common skip (neighbor not infectious)
	// never touches the 8-byte effInf table. The tables are maintained
	// incrementally at their mutation points (updateEffInf, the mask
	// setters) rather than rebuilt O(n) every tick; Run applies the only
	// day-driven changes — isolation windows ending today and global
	// context flips — at the top of each tick.
	effInf       []float64
	effMaskT     []uint8
	effInfBits   []uint64
	maskDirtyAll bool
	// riskBits[v/64] has bit v%64 set iff v has an infectious neighbor, and
	// susBits[v/64] iff v's health state is susceptible. The transmission
	// scan iterates the set bits of riskBits&susBits word by word, so a
	// tick's cost tracks the live frontier — people who can be infected
	// today — rather than the population or the set of everyone an epidemic
	// has passed through. bumpInfNbr flips a risk bit when the count crosses
	// 0↔1; updateEffInf maintains the susceptible bit after every health
	// write (waning sets it again). 64-aligned shard boundaries keep each
	// word single-owner.
	riskBits []uint64
	susBits  []uint64
	// isolExpiry[d] lists the persons whose isolation window ends on day
	// d, whose cached masks must be refreshed that morning.
	isolExpiry [][]int32

	// iotaMax is the largest per-state infectivity of the model and
	// scaleHW a high-watermark of |infectivityScale| ever set; together
	// with the per-tick max context weight they give propBound, which
	// bounds any contact's propensity per unit of σ·T·w. A node's total
	// propensity is then at most σ·propBound·(its infectious-contact sum in
	// infNbr), and the kernel rejects most frontier nodes against that
	// without visiting a single edge.
	iotaMax   float64
	scaleHW   float64
	lastOmega float64
	propBound float64

	// staticBytes caches the network-proportional term of MemoryBytes,
	// which is constant after construction.
	staticBytes int64
}

// TransitionEvent is one state change within the current tick.
type TransitionEvent struct {
	PID      int32
	From, To disease.State
	Infector int32
}

// scheduledAction is one queued state change. Actions created by the
// simulator's own machinery (delayed seeding, test-and-isolate detections)
// are typed so they can travel with snapshots; Schedule's arbitrary
// closures remain supported but make the sim unsnapshotable while one is
// pending.
type scheduledAction struct {
	day   int
	kind  uint8
	pids  []int32      // opSeedPersons: persons to expose if susceptible
	pid   int32        // opIsolate
	until int32        // opIsolate
	fn    func(s *Sim) // opOpaque
}

// Scheduled-action kinds. opOpaque is an arbitrary closure and cannot be
// serialized; the typed kinds round-trip through Snapshot/Restore.
const (
	opOpaque uint8 = iota
	opSeedPersons
	opIsolate
)

// run applies the action. Typed kinds reproduce exactly the closures they
// replaced: seeding exposes the listed persons (still susceptible) at the
// action's scheduled day; isolation confines one person until a fixed day.
func (a *scheduledAction) run(s *Sim) {
	switch a.kind {
	case opSeedPersons:
		for _, pid := range a.pids {
			if s.model.IsSusceptible(s.health[pid]) {
				s.infect(&s.serial, pid, NoInfector, a.day)
			}
		}
	case opIsolate:
		s.Isolate(a.pid, int(a.until))
	default:
		a.fn(s)
	}
}

const allContexts = uint8(1<<synthpop.NumContexts) - 1
const homeOnlyMask = uint8(1) << uint8(synthpop.CtxHome)

// New validates the configuration and builds an initialized simulation.
func New(cfg Config) (*Sim, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.applySeeding(); err != nil {
		return nil, err
	}
	s.foldSerial(0)
	return s, nil
}

// newSim builds the simulation slabs without applying the configured
// seeding. New seeds immediately; NewFromSnapshot instead overwrites the
// fresh state with the checkpointed one (the snapshot already contains the
// seeding's effects, so seeding again would double-infect).
func newSim(cfg Config) (*Sim, error) {
	if cfg.Model == nil || cfg.Network == nil {
		return nil, fmt.Errorf("epihiper: model and network are required")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("epihiper: invalid model: %w", err)
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("epihiper: non-positive horizon %d", cfg.Days)
	}
	for _, seed := range cfg.Seeds {
		if seed.Count < 0 {
			return nil, fmt.Errorf("epihiper: seeding of county %d has negative count %d", seed.CountyFIPS, seed.Count)
		}
	}
	csr := cfg.Network.CSR()
	if err := csr.RangeErr(); err != nil {
		return nil, fmt.Errorf("epihiper: network outside the kernel's counter range: %w", err)
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.PartitionTolerance <= 0 {
		cfg.PartitionTolerance = 0.01
	}
	n := cfg.Network.NumNodes()
	s := &Sim{
		cfg:                 cfg,
		model:               cfg.Model,
		net:                 cfg.Network,
		csr:                 csr,
		ageBand:             cfg.Network.AgeBands(),
		health:              make([]disease.State, n),
		nextState:           make([]disease.State, n),
		switchTick:          make([]int32, n),
		infectivityScale:    make([]float32, n),
		susceptibilityScale: make([]float32, n),
		ctxMask:             make([]uint8, n),
		globalCtxMask:       allContexts,
		isolatedUntil:       make([]int32, n),
		effInf:              make([]float64, n),
		effMaskT:            make([]uint8, n),
		effInfBits:          make([]uint64, (n+63)/64),
		riskBits:            make([]uint64, (n+63)/64),
		susBits:             make([]uint64, (n+63)/64),
		infNbr:              make([]uint64, n),
		isolExpiry:          make([][]int32, cfg.Days),
		scaleHW:             1,
		lastOmega:           cfg.Model.Transmissibility,
		Vars:                make(map[string]float64),
		ivRNG:               stats.NewRNG(cfg.Seed ^ 0xA5A5A5A5A5A5A5A5),
	}
	for c := range s.ctxWeight {
		s.ctxWeight[c] = 1
	}
	for st := disease.State(0); st < disease.NumStates; st++ {
		if v := cfg.Model.Attrs[st].Infectivity; v > s.iotaMax {
			s.iotaMax = v
		}
	}
	for i := 0; i < n; i++ {
		s.switchTick[i] = -1
		s.infectivityScale[i] = 1
		s.susceptibilityScale[i] = 1
		s.ctxMask[i] = allContexts
		s.effMaskT[i] = allContexts
		s.updateEffInf(int32(i))
	}
	s.currentByState[disease.Susceptible] = n
	// Shard boundaries are rounded to 64-node multiples so no word of
	// effInfBits, riskBits or susBits spans two owners — the mutate phase
	// can then maintain the bitsets without atomics.
	s.parts = cfg.Network.PartitionNodesAligned(cfg.Parallelism, cfg.PartitionTolerance, shardAlign)
	s.buildShards()
	// The network-proportional memory term never changes after
	// construction; the per-tick MemoryBytes samples only add the dynamic
	// intervention state. NumEdges comes from the CSR offsets instead of
	// an O(n) adjacency walk.
	halfEdges := s.csr.Offsets[n]
	s.staticBytes = int64(n)*32 + halfEdges*16
	return s, nil
}

// applySeeding moves the configured initial infections into the exposed
// state on day 0 (seedings for later days are scheduled). Persons are drawn
// through the population database when one is configured, matching the
// production start-up path.
func (s *Sim) applySeeding() error {
	for _, pid := range s.cfg.SeedPersons {
		if pid < 0 || int(pid) >= s.net.NumNodes() {
			return fmt.Errorf("epihiper: seed person %d out of range", pid)
		}
		if s.model.IsSusceptible(s.health[pid]) {
			s.infect(&s.serial, pid, NoInfector, 0)
		}
	}
	var conn *popdb.Conn
	if s.cfg.DB != nil {
		var err error
		if conn, err = s.cfg.DB.TryConnect(); err != nil {
			return fmt.Errorf("epihiper: population DB: %w", err)
		}
		defer conn.Close()
	}
	for _, seed := range s.cfg.Seeds {
		// Both sources list a county ascending by person ID; the network's
		// index is built once and shared across the thousands of sims a
		// replicate fan-out constructs over one network.
		var ids []int32
		if conn != nil {
			var err error
			if ids, err = conn.PersonsInCounty(seed.CountyFIPS); err != nil {
				return err
			}
		} else {
			ids = s.net.PersonsByCounty()[seed.CountyFIPS]
		}
		if len(ids) == 0 {
			continue // county may be empty at small scales
		}
		chosen := s.seededPersons(seed, ids)
		if seed.Day <= 0 {
			for _, pid := range chosen {
				s.infect(&s.serial, pid, NoInfector, 0)
			}
		} else {
			s.scheduleOp(scheduledAction{day: seed.Day, kind: opSeedPersons, pids: chosen})
		}
	}
	return nil
}

// seededPersons returns the persons a seeding infects, ascending: the first
// min(Count, len(ids)) of a permutation of ids, its county's persons, drawn
// from a stream keyed on (run seed, county, day).
func (s *Sim) seededPersons(seed Seeding, ids []int32) []int32 {
	r := stats.NewRNG(s.cfg.Seed ^ uint64(seed.CountyFIPS)*0x9E3779B97F4A7C15 ^ uint64(seed.Day))
	perm := r.Perm(len(ids))
	chosen := make([]int32, min(seed.Count, len(ids)))
	for i := range chosen {
		chosen[i] = ids[perm[i]]
	}
	slices.Sort(chosen)
	return chosen
}

// infect moves person pid into the model's exposed state at the given tick
// and samples their onward progression.
func (s *Sim) infect(sh *shard, pid, infector int32, tick int) {
	s.applyTransition(sh, pid, s.health[pid], s.model.ExposedState, infector, tick)
}

// applyTransition applies a state change, buffers its event, and samples the
// next progression step. The caller is sh's mutate phase, with pid owned by
// sh, or a serial stage, with sh the serial shard: counter changes accumulate
// in the shard's deltas, the event waits in its buffer for the fold, and
// infectious-contact updates for neighbors outside its range become outbox
// messages instead of direct writes. The mutate phase allocates nothing here
// once its buffers are warm.
func (s *Sim) applyTransition(sh *shard, pid int32, from, to disease.State, infector int32, tick int) {
	s.health[pid] = to
	sh.curDelta[from]--
	sh.curDelta[to]++
	sh.cumDelta[to]++
	s.updateEffInf(pid)
	// A change of infectiousness adds this node's contacts to, or removes
	// them from, every neighbor's infectious-contact word: neg is 0 for a
	// gain and -1 for a loss.
	wasInf := s.model.IsInfectious(from)
	if isInf := s.model.IsInfectious(to); wasInf != isInf {
		var neg int32
		if wasInf {
			neg = -1
		}
		s.bumpNeighbors(sh, pid, neg)
	}
	sh.events = append(sh.events, TransitionEvent{PID: pid, From: from, To: to, Infector: infector})
	r := stats.Seeded(s.nodeSeed(pid, tick, phaseProgressionSample))
	next, dwell, ok := s.model.Next(to, s.ageBand[pid], &r)
	if !ok {
		s.switchTick[pid] = -1
		return
	}
	s.nextState[pid] = next
	fire := tick + dwell
	s.switchTick[pid] = int32(fire)
	// A progression enters the calendar of pid's owner, unless it can never
	// fire: past the horizon, or before the current day (a serial-stage
	// transition stamped with an earlier tick).
	if fire < s.cfg.Days && fire >= s.day {
		s.ownerOf(pid).schedule(pid, fire)
	}
}

// Layout of a node's infectious-contact word: the neighbor count in the low
// nbrCountBits bits, the fixed-point ΣT·w above. quantTWUnit is one
// fixed-point step of T·w.
const (
	nbrCountBits = 24
	nbrCountMask = 1<<nbrCountBits - 1
	quantTWUnit  = 1.0 / (1 << synthpop.TWQuantBits)
)

// synthpop's limits are these field widths; each line fails to compile if
// its limit outgrows the field: the count holds any degree, the sum any row
// sum, and an nbrUpdate's int32 any single contact.
const (
	_ = uint64(nbrCountMask - synthpop.MaxDegree)
	_ = uint64(synthpop.MaxRowQuantTW) << nbrCountBits
	_ = uint64(math.MaxInt32 - synthpop.MaxQuantTW)
)

// infNbrCount returns the number of v's currently infectious neighbors.
func (s *Sim) infNbrCount(v int32) int32 { return int32(s.infNbr[v] & nbrCountMask) }

// infContactTW returns the upper bound on ΣT·w over v's contacts with
// currently infectious neighbors: exact up to the rounding-up of QuantTW.
func (s *Sim) infContactTW(v int32) float64 { return float64(s.infNbr[v]>>nbrCountBits) * quantTWUnit }

// bumpNeighbors adds pid's contacts to every neighbor's infectious-contact
// word (neg = 0) or removes them (neg = -1): (q^neg)-neg negates q without a
// branch. It is the one neighbor loop at every shard count: shard sh writes
// the words of its own range, found by one unsigned compare, and sends the
// rest to their owners' outboxes (the serial shard's range is every node).
func (s *Sim) bumpNeighbors(sh *shard, pid, neg int32) {
	off, end := s.csr.Offsets[pid], s.csr.Offsets[pid+1]
	first, span := uint32(sh.first), uint32(sh.last-sh.first)
	sh.work.edgeVisits += end - off
	codes, qOf := s.csr.Code[off:end], s.csr.Q
	for i, v := range s.csr.Nbr[off:end] {
		q := (qOf[codes[i]] ^ neg) - neg
		if uint32(v)-first <= span {
			s.bumpInfNbr(v, q)
		} else {
			d := s.ownerWord[uint32(v)>>6]
			sh.outbox[d] = append(sh.outbox[d], nbrUpdate{pid: v, q: q})
		}
	}
}

// bumpInfNbr adds a contact of fixed-point weight q to node v's
// infectious-contact word (q > 0: the far end turned infectious) or removes
// it (q < 0), and flips v's at-risk bit when the count crosses 0↔1. During
// the mutate/exchange phases it is only ever called by v's owner shard;
// 64-aligned shard boundaries make the word write exclusive.
func (s *Sim) bumpInfNbr(v, q int32) {
	old := s.infNbr[v]
	c := old + uint64(int64(q)<<nbrCountBits+int64(q>>31|1))
	s.infNbr[v] = c
	if (old&nbrCountMask == 0) != (c&nbrCountMask == 0) {
		s.riskBits[uint32(v)>>6] ^= 1 << (uint32(v) & 63)
	}
}

// RNG phase salts keep the per-(node, tick) streams of different phases
// independent.
const (
	phaseTransmission      uint64 = 0x1000000000000001
	phaseProgressionSample uint64 = 0x2000000000000002
)

// nodeSeed derives the deterministic stream seed for one node at one tick
// in one phase. Results are therefore independent of partitioning and
// worker scheduling. Callers materialize the stream with stats.Seeded on
// the stack — the hot loop allocates no RNG state.
func (s *Sim) nodeSeed(pid int32, tick int, phase uint64) uint64 {
	h := s.cfg.Seed
	h ^= uint64(uint32(pid)) * 0x9E3779B97F4A7C15
	h ^= uint64(uint32(tick)) * 0xC2B2AE3D27D4EB4F
	h ^= phase
	return h
}

// updateEffInf refreshes what the kernel caches about one person's health
// state: the effective infectivity with its bit in the infectious bitset,
// and the bit in the susceptible bitset. It must be called after every write
// to the person's health state or infectivity scale, and only from the
// phases that may write (the parallel transmission phase reads the tables).
func (s *Sim) updateEffInf(pid int32) {
	attr := &s.model.Attrs[s.health[pid]]
	inf := attr.Infectivity * float64(s.infectivityScale[pid]) * s.model.Transmissibility
	s.effInf[pid] = inf
	wi, bit := uint32(pid)>>6, uint64(1)<<(uint(pid)&63)
	if inf != 0 {
		s.effInfBits[wi] |= bit
	} else {
		s.effInfBits[wi] &^= bit
	}
	if attr.Susceptibility > 0 {
		s.susBits[wi] |= bit
	} else {
		s.susBits[wi] &^= bit
	}
}

// effMask returns the currently-enabled contexts of a person, combining the
// personal mask, global mask and isolation status.
func (s *Sim) effMask(pid int32) uint8 {
	m := s.ctxMask[pid] & s.globalCtxMask
	if int32(s.day) < s.isolatedUntil[pid] {
		m &= homeOnlyMask
	}
	return m
}

// Day returns the current simulation day.
func (s *Sim) Day() int { return s.day }

// Model returns the disease model.
func (s *Sim) Model() *disease.Model { return s.model }

// Network returns the contact network.
func (s *Sim) Network() *synthpop.Network { return s.net }

// CumulativeCount returns the number of entries into the state so far.
func (s *Sim) CumulativeCount(st disease.State) int64 { return s.cumByState[st] }

// SetContextEnabled enables or disables one context for a person (an
// EpiHiper action-ensemble edge operation expressed at the node level).
func (s *Sim) SetContextEnabled(pid int32, ctx synthpop.Context, enabled bool) {
	bit := uint8(1) << uint8(ctx)
	if enabled {
		s.ctxMask[pid] |= bit
	} else {
		s.ctxMask[pid] &^= bit
	}
	s.effMaskT[pid] = s.effMask(pid)
}

// SetContextWeight scales the effective weight of every contact whose
// source context is ctx (1 = unmodified). Values below 1 model
// transmission-reducing measures that keep the contacts alive — mask
// mandates, distancing rules, ventilation.
func (s *Sim) SetContextWeight(ctx synthpop.Context, factor float64) {
	if factor < 0 {
		factor = 0
	}
	s.ctxWeight[ctx] = factor
}

// SetGlobalContext enables or disables a context network-wide. A call that
// leaves the mask unchanged (interventions re-assert their context state
// every active tick) is a no-op and does not schedule the O(n) cached-mask
// rebuild.
func (s *Sim) SetGlobalContext(ctx synthpop.Context, enabled bool) {
	bit := uint8(1) << uint8(ctx)
	m := s.globalCtxMask
	if enabled {
		m |= bit
	} else {
		m &^= bit
	}
	if m == s.globalCtxMask {
		return
	}
	s.globalCtxMask = m
	s.maskDirtyAll = true
}

// Isolate confines a person to home contacts until the given day
// (exclusive). Isolation state contributes to the dynamic-memory account.
func (s *Sim) Isolate(pid int32, untilDay int) {
	if int32(untilDay) > s.isolatedUntil[pid] {
		if s.isolatedUntil[pid] <= int32(s.day) {
			s.dynamicBytes += perScheduledChangeBytes
		}
		s.isolatedUntil[pid] = int32(untilDay)
		s.effMaskT[pid] = s.effMask(pid)
		// The cached mask must be refreshed the morning the window ends.
		if untilDay >= 0 && untilDay < len(s.isolExpiry) {
			s.isolExpiry[untilDay] = append(s.isolExpiry[untilDay], pid)
		}
	}
}

// SetSusceptibility sets a person's susceptibility scaling factor.
func (s *Sim) SetSusceptibility(pid int32, v float64) { s.susceptibilityScale[pid] = float32(v) }

// SetInfectivity sets a person's infectivity scaling factor.
func (s *Sim) SetInfectivity(pid int32, v float64) {
	s.infectivityScale[pid] = float32(v)
	if a := math.Abs(v); a > s.scaleHW {
		s.scaleHW = a
	}
	s.updateEffInf(pid)
}

// Schedule queues an action to run at the start of the given day. The
// paper's action ensembles "delay the operation to a later point in the
// simulation"; the queue length feeds the memory model. Closure actions are
// opaque to Snapshot — a sim with one pending cannot be checkpointed; the
// typed ScheduleIsolate is preferred where it fits.
func (s *Sim) Schedule(day int, fn func(*Sim)) {
	s.scheduleOp(scheduledAction{day: day, kind: opOpaque, fn: fn})
}

// ScheduleIsolate queues an isolation of pid until untilDay (exclusive) to
// be applied at the start of the given day. Unlike Schedule's closures the
// queued action is typed, so it survives Snapshot/Restore.
func (s *Sim) ScheduleIsolate(day int, pid int32, untilDay int) {
	s.scheduleOp(scheduledAction{day: day, kind: opIsolate, pid: pid, until: int32(untilDay)})
}

func (s *Sim) scheduleOp(a scheduledAction) {
	s.scheduled = append(s.scheduled, a)
	s.dynamicBytes += perScheduledChangeBytes
}

// Neighbors returns the contacts of a person (shared; do not mutate).
func (s *Sim) Neighbors(pid int32) []int32 { return s.csr.Neighbors(pid) }

// TodayEvents returns the transitions recorded so far in the current tick
// (shared; do not mutate). Interventions use it to react to, e.g., new
// symptomatic cases.
func (s *Sim) TodayEvents() []TransitionEvent { return s.todayEvents }

// AddDynamicMemory accounts additional intervention-driven state in the
// memory model (Figure 10's compliance-proportional growth).
func (s *Sim) AddDynamicMemory(bytes int64) {
	s.dynamicBytes += bytes
	if s.dynamicBytes < 0 {
		s.dynamicBytes = 0
	}
}

const perScheduledChangeBytes = 64

// MemoryBytes models the resident memory of the simulation process: the
// partitioned network plus per-person state plus the intervention-driven
// dynamic state (scheduled changes, isolation entries). The paper's
// Figure 10 shows memory growing at intervention trigger points in
// proportion to compliance; the dynamic term reproduces that. The static
// network term is cached at construction.
func (s *Sim) MemoryBytes() int64 {
	return s.staticBytes + s.dynamicBytes
}

// MemoryTrace returns the per-tick memory samples collected during Run.
func (s *Sim) MemoryTrace() []int64 { return s.memTrace }
