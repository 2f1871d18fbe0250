package epihiper

import (
	"math/bits"

	"repro/internal/disease"
	"repro/internal/synthpop"
)

// This file implements the shard-owned execution engine: the distributed-
// memory ABM pattern of the paper (EpiHiper splits the national network per
// state across MPI ranks; "Pandemics in Silico" formalizes the same
// shard-owns-state / exchange-at-tick-boundaries design), expressed over
// goroutines inside one process.
//
// Ownership. The network's nodes are split into contiguous, 64-aligned
// ranges by the edge-balanced partitioner; shard i privately owns range
// [first_i, last_i] of every per-person slab (health, nextState,
// switchTick, scales, effInf, effMaskT, the effInfBits/riskBits/susBits
// bitset words, infNbr) plus its own progression calendar. During the
// parallel phases of a tick, a shard writes ONLY owned state; everything it
// reads about other shards' nodes (their effInf, effMaskT, effInfBits) is
// frozen for the duration of the phase by the barrier protocol below. The
// 64-alignment guarantees no bitset word is shared between owners, so
// bitset maintenance needs no atomics. The serial stages run on one more
// shard, Sim.serial, that owns every node; transitions take the same path
// and fold the same way on either kind.
//
// Barrier protocol. Each tick runs four parallel phases, separated by
// barriers (the coordinator's WaitGroup), with serial stitches between:
//
//	serial : scheduled actions (on the serial shard, then folded),
//	         propensity-bound refresh
//	upkeep : per-shard table maintenance (effInf rebuild on ω change,
//	         isolation-window expiries, global-context mask refresh)
//	-------- barrier: tables frozen -------------------------------------
//	transmit: per-shard transmission scan — reads any shard's tables,
//	         writes only the shard's private exposure buffer
//	-------- barrier 1 of the tick: reads done, writes may begin --------
//	mutate : per-shard progression drain + exposure application — writes
//	         owned state; infectiousness changes touching a REMOTE
//	         neighbor's infectious-contact word become typed nbrUpdate
//	         messages in the sender's outbox for that owner
//	-------- barrier 2 of the tick: all messages written ----------------
//	exchange: each shard reads the outboxes addressed to it, in sender
//	         order, and applies the contact gains and losses
//	serial : canonical merge (counters, then events to todayEvents and
//	         the recorder), interventions, daily accounting
//
// Determinism. Output is bit-identical at any shard count because (a)
// every stochastic decision draws from an RNG keyed on (seed, node, tick,
// phase), never a worker stream; (b) each shard drains progressions and
// applies exposures in ascending node order, and the serial merge
// concatenates per-shard buffers in shard order — reproducing exactly the
// global ascending-node order of the single-threaded kernel; (c) outboxes
// are applied in sender order (and the infectious-contact words are
// integers — count and fixed-point weight sum — so their additions commute
// regardless); (d) counter deltas fold in shard order.
const shardAlign = 64

// Parallel phase identifiers, in per-tick execution order.
const (
	phUpkeep = iota
	phTransmit
	phMutate
	phExchange
	numPhases
)

// phaseNames label the per-phase wall-clock series
// epi_span_seconds{span="epihiper.shard.<name>"}.
var phaseNames = [numPhases]string{"upkeep", "transmit", "mutate", "exchange"}

// nbrUpdate is the typed cross-shard message: "node pid (yours) gained
// (q > 0) or lost (q < 0) an infectious neighbor (mine) over a contact of
// fixed-point weight |q| = synthpop.QuantTW(T·w)". Once the home tables have
// started, pid = ^v marks a contact that is home on v's side, which moves
// v's home count by the sign of q too. It is the only state any shard ever
// communicates to another — everything else a shard learns about remote
// nodes it reads from the phase-frozen tables.
type nbrUpdate struct {
	pid int32
	q   int32
}

// shard is one processing unit: the owner of a contiguous node range and
// of every piece of per-tick scratch that range needs. All fields are
// touched only by the goroutine executing the shard's current phase, or by
// the coordinator between barriers.
type shard struct {
	id          int
	first, last int32 // inclusive owned node range; first is 64-aligned
	part        synthpop.Partition

	// calendar[d] is the set of owned persons whose pending progression was
	// scheduled to fire on day d, as a bitset over the shard's own words
	// (bit i of word w is node first+64w+i): enumerating set bits IS
	// ascending node order and a person cannot be entered twice, so the
	// drain neither sorts nor dedups. switchTick remains the source of
	// truth — a person rescheduled since leaves a stale bit, filtered at
	// drain time. A day's bitset is taken from freeDays (or allocated) on
	// the day's first entry and returned, zeroed, when drained, so live
	// memory follows the longest outstanding dwell, not the horizon.
	calendar [][]uint64
	freeDays [][]uint64

	// exposures is the transmit phase's output, mutate's input.
	exposures []exposure
	scratch   []propEntry

	// events buffers the mutate phase's transitions: [:progCount] are the
	// progression drain's (ascending pid), [progCount:] the exposure
	// applications' (ascending pid). The coordinator merges them into the
	// canonical tick order at the barrier.
	events    []TransitionEvent
	progCount int

	// outbox[d] accumulates this tick's updates for nodes of shard d; shard
	// d reads it in its exchange phase, after the mutate barrier.
	outbox [][]nbrUpdate

	// Counter deltas of the mutate phase and the work counts of the tick's
	// phases, folded into the Sim's totals (in shard order) at the merge.
	curDelta   [disease.NumStates]int
	cumDelta   [disease.NumStates]int64
	infections int64
	work       kernelWork
}

// kernelWork counts what the kernel did, as opposed to how long it took: the
// series that say whether a tick's cost followed the live frontier. Phases
// accumulate into locals or their shard's copy; mergeTick folds the shards
// into the Sim's count for the run segment, which publishMetrics exports.
// Every count but crossShardUpdates is independent of the shard count.
type kernelWork struct {
	atRiskVisits      int64 // frontier nodes the transmit phase looked at
	rowScans          int64 // of those, rows scanned (the thinning bound did not decide)
	edgeVisits        int64 // contacts read: scan steps plus neighbor updates in mutate
	exposures         int64 // infections the transmit phase decided
	crossShardUpdates int64 // nbrUpdates sent to another shard
}

func (w *kernelWork) add(o kernelWork) {
	w.atRiskVisits += o.atRiskVisits
	w.rowScans += o.rowScans
	w.edgeVisits += o.edgeVisits
	w.exposures += o.exposures
	w.crossShardUpdates += o.crossShardUpdates
}

// buildShards materializes one shard per (aligned) partition and the
// word-granular owner table behind ownerOf.
func (s *Sim) buildShards() {
	ns := len(s.parts)
	s.shards = make([]shard, ns)
	s.shardStarts = make([]int32, ns)
	nn := int(s.parts[ns-1].LastNode) + 1
	s.ownerWord = make([]uint16, (nn+63)/64)
	for i, p := range s.parts {
		sh := &s.shards[i]
		sh.id = i
		sh.first, sh.last = p.FirstNode, p.LastNode
		sh.part = p
		sh.calendar = make([][]uint64, s.cfg.Days)
		sh.outbox = make([][]nbrUpdate, ns)
		s.shardStarts[i] = p.FirstNode
		for w := int(uint32(p.FirstNode) >> 6); w <= int(uint32(p.LastNode)>>6); w++ {
			s.ownerWord[w] = uint16(i)
		}
	}
	s.serial.last = int32(nn - 1)
}

// ownerOf returns the shard owning node v. Because shard boundaries are
// 64-aligned, ownership is constant per bitset word, so the lookup is one
// load into a table of n/64 entries. The mutate phase's neighbor loop reads
// the same table directly, and only for neighbors outside its own range.
func (s *Sim) ownerOf(v int32) *shard {
	return &s.shards[s.ownerWord[uint32(v)>>6]]
}

// owns reports whether the shard owns node v.
func (sh *shard) owns(v int32) bool { return v >= sh.first && v <= sh.last }

// schedule enters owned person pid into the calendar of day fire.
func (sh *shard) schedule(pid int32, fire int) {
	set := sh.calendar[fire]
	if set == nil {
		if k := len(sh.freeDays); k > 0 {
			set, sh.freeDays = sh.freeDays[k-1], sh.freeDays[:k-1]
		} else {
			set = make([]uint64, (sh.last-sh.first)>>6+1)
		}
		sh.calendar[fire] = set
	}
	off := uint32(pid - sh.first)
	set[off>>6] |= 1 << (off & 63)
}

// runPhase executes one parallel phase for one shard. The coordinator calls
// it for shard 0 and a helper goroutine for each other shard; either way the
// barrier protocol guarantees exclusive access to the shard and the phase's
// read/write discipline documented above.
func (s *Sim) runPhase(phase int, sh *shard) {
	switch phase {
	case phUpkeep:
		s.upkeepPhase(sh, s.day)
	case phTransmit:
		sh.exposures, sh.scratch = s.transmissionPhase(sh.part, s.day, sh.exposures[:0], sh.scratch[:0])
	case phMutate:
		s.mutatePhase(sh, s.day)
	case phExchange:
		s.exchangePhase(sh)
	}
}

// upkeepPhase applies the day-driven changes to the shard's slice of the
// kernel's cached tables: the effInf rebuild after a transmissibility
// change, isolation windows ending today, and the effMaskT refresh after a
// global context flip. Each rewrite is idempotent and confined to owned
// nodes; the coordinator clears the dirty flags after the barrier.
func (s *Sim) upkeepPhase(sh *shard, day int) {
	if s.omegaDirty {
		for pid := sh.first; pid <= sh.last; pid++ {
			s.updateEffInf(pid)
		}
	}
	if day < len(s.isolExpiry) {
		for _, pid := range s.isolExpiry[day] {
			if sh.owns(pid) {
				s.setEffMask(pid, s.effMask(pid))
			}
		}
	}
	if s.maskDirtyAll {
		for pid := sh.first; pid <= sh.last; pid++ {
			s.setEffMask(pid, s.effMask(pid))
		}
	}
}

// mutatePhase applies the tick's state changes to the shard's owned nodes:
// first the progressions whose dwell expires today (the day's calendar
// bitset, so ascending node order; stale entries arbitrated by switchTick),
// then the exposures the transmit phase found (ascending node order; a node
// that progressed out of susceptibility this tick can no longer be
// exposed). Infectiousness changes update owned neighbors' words directly
// and queue nbrUpdate messages for the owners of remote neighbors.
func (s *Sim) mutatePhase(sh *shard, day int) {
	for d := range sh.outbox {
		sh.outbox[d] = sh.outbox[d][:0]
	}
	if set := sh.calendar[day]; set != nil {
		sh.calendar[day] = nil
		for wi, w := range set {
			if w == 0 {
				continue
			}
			set[wi] = 0
			base := sh.first + int32(wi<<6)
			for ; w != 0; w &= w - 1 {
				pid := base + int32(bits.TrailingZeros64(w))
				if s.switchTick[pid] == int32(day) {
					s.applyTransition(sh, pid, s.health[pid], s.nextState[pid], NoInfector, day)
				}
			}
		}
		sh.freeDays = append(sh.freeDays, set)
	}
	sh.progCount = len(sh.events)
	for _, e := range sh.exposures {
		if s.model.IsSusceptible(s.health[e.pid]) {
			s.infect(sh, e.pid, e.infector, day)
			sh.infections++
		}
	}
	for _, out := range sh.outbox {
		sh.work.crossShardUpdates += int64(len(out))
	}
}

// exchangePhase applies the infectious-contact gains and losses addressed to
// the shard, reading every sender's outbox in ascending sender order. The
// mutate barrier orders the senders' writes before these reads, and a
// sender clears its outboxes only in its next mutate phase, after this
// phase's barrier.
func (s *Sim) exchangePhase(sh *shard) {
	for src := range s.shards {
		for _, u := range s.shards[src].outbox[sh.id] {
			if u.pid < 0 {
				u.pid = ^u.pid
				s.bumpHome(u.pid, u.q>>31|1)
			}
			s.bumpInfNbr(u.pid, u.q)
		}
	}
}

// mergeTick folds the shards' phase outputs into the global state, in
// shard order: counter deltas, the infection total, work counts, and the
// buffered transition events — all progressions (ascending node order across
// shards), then all exposures, exactly the order the single-threaded
// kernel emits.
func (s *Sim) mergeTick(res *Result, day int) {
	for si := range s.shards {
		sh := &s.shards[si]
		s.foldCounters(sh)
		res.TotalInfections += sh.infections
		sh.infections = 0
		s.work.add(sh.work)
		sh.work = kernelWork{}
	}
	for si := range s.shards {
		sh := &s.shards[si]
		s.emit(day, sh.events[:sh.progCount])
	}
	for si := range s.shards {
		sh := &s.shards[si]
		s.emit(day, sh.events[sh.progCount:])
		sh.events = sh.events[:0]
		sh.progCount = 0
	}
}

// foldSerial folds the serial shard's transitions, counters first, then
// events, as mergeTick folds a real shard's.
func (s *Sim) foldSerial(day int) {
	s.foldCounters(&s.serial)
	s.emit(day, s.serial.events)
	s.serial.events = s.serial.events[:0]
}

// foldCounters moves a shard's counter deltas into the Sim's totals.
func (s *Sim) foldCounters(sh *shard) {
	for st := range sh.curDelta {
		s.currentByState[st] += sh.curDelta[st]
		sh.curDelta[st] = 0
	}
	for st := range sh.cumDelta {
		s.cumByState[st] += sh.cumDelta[st]
		sh.cumDelta[st] = 0
	}
}

// emit appends transitions of the day to todayEvents and hands them to the
// recorder, on the coordinator goroutine: the kernel's one event outlet.
func (s *Sim) emit(day int, events []TransitionEvent) {
	s.todayEvents = append(s.todayEvents, events...)
	if rec := s.cfg.Recorder; rec != nil {
		for _, ev := range events {
			rec.Record(day, ev.PID, ev.From, ev.To, ev.Infector)
		}
	}
}

// ShardCount returns the number of shards (processing units) the sim runs.
func (s *Sim) ShardCount() int { return len(s.shards) }

// PhaseSeconds returns the accumulated wall-clock seconds of one parallel
// phase ("upkeep", "transmit", "mutate", "exchange") across the run so far.
func (s *Sim) PhaseSeconds(phase string) float64 {
	for i, n := range phaseNames {
		if n == phase {
			return s.phaseSecs[i]
		}
	}
	return 0
}
