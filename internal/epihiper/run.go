package epihiper

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/disease"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// Result summarizes one simulation run.
type Result struct {
	Days int
	// Daily[d][st] is the number of persons entering state st on day d.
	Daily [][disease.NumStates]int32
	// Current[d][st] is the occupancy of state st at the end of day d.
	Current [][disease.NumStates]int32
	// TotalInfections counts all transmission events.
	TotalInfections int64
	// PeakMemoryBytes is the maximum modeled memory during the run.
	PeakMemoryBytes int64
}

// Transitions returns the number of state transitions of the run so far —
// the number of lines a Recorder received, for callers that need the size of
// the raw output but not the output.
func (r *Result) Transitions() int64 {
	var n int64
	for d := range r.Daily {
		for _, c := range r.Daily[d] {
			n += int64(c)
		}
	}
	return n
}

// exposure is a pending infection computed during the transmission phase.
type exposure struct {
	pid      int32
	infector int32
}

// propEntry is one contributing contact recorded in a worker's scratch
// buffer during the propensity accumulation pass, so infector selection
// is a single replay over the buffer instead of a second edge walk.
type propEntry struct {
	nbr int32
	p   float64
}

// Run executes the configured number of ticks and returns the summary.
// It may be called once per Sim.
func (s *Sim) Run() (*Result, error) {
	res := s.newResult()
	s.runSpan(res, s.cfg.Days)
	return res, nil
}

// RunPrefix executes ticks up to (excluding) stop and returns the partial
// summary: daily rows [0, stop) are filled, the rest zero. The sim stays
// live at day stop; Snapshot can checkpoint it and RunSuffix continue it.
func (s *Sim) RunPrefix(stop int) (*Result, error) {
	return s.RunSegment(nil, stop)
}

// RunSuffix continues a sim positioned mid-horizon (a RunPrefix survivor or
// a snapshot restore) to the end of the horizon. The prefix result's rows
// and totals are cloned into the returned summary, so Run on a fresh sim
// and RunPrefix+RunSuffix produce bit-identical Results.
func (s *Sim) RunSuffix(prefix *Result) (*Result, error) {
	if prefix == nil {
		return nil, fmt.Errorf("epihiper: suffix needs the prefix result")
	}
	return s.RunSegment(prefix, s.cfg.Days)
}

// RunSegment executes days [completed, stop) and returns the summary:
// prefix (when non-nil) supplies the rows of the already-completed days and
// is deep-copied, never mutated — a cached prefix result can seed many
// branches. Segments compose: Run ≡ any chain of RunSegment calls ending at
// the horizon, bit for bit.
func (s *Sim) RunSegment(prefix *Result, stop int) (*Result, error) {
	if stop < 0 || stop > s.cfg.Days {
		return nil, fmt.Errorf("epihiper: segment stop %d outside [0, %d]", stop, s.cfg.Days)
	}
	if stop < s.ranTo {
		return nil, fmt.Errorf("epihiper: segment stop %d before completed day %d", stop, s.ranTo)
	}
	var res *Result
	if prefix == nil {
		res = s.newResult()
	} else {
		if prefix.Days != s.cfg.Days {
			return nil, fmt.Errorf("epihiper: prefix result horizon %d != sim horizon %d", prefix.Days, s.cfg.Days)
		}
		res = prefix.clone()
	}
	s.runSpan(res, stop)
	return res, nil
}

func (s *Sim) newResult() *Result {
	return &Result{
		Days:    s.cfg.Days,
		Daily:   make([][disease.NumStates]int32, s.cfg.Days),
		Current: make([][disease.NumStates]int32, s.cfg.Days),
	}
}

// clone deep-copies the summary so a suffix run can extend it without
// mutating the (possibly shared, possibly cached) prefix rows.
func (r *Result) clone() *Result {
	c := *r
	c.Daily = slices.Clone(r.Daily)
	c.Current = slices.Clone(r.Current)
	return &c
}

// runSpan executes days [s.ranTo, stop), accumulating into res.
//
// Each tick runs the shard engine's parallel phases (shard.go documents
// the ownership and barrier protocol) between a serial head (scheduled
// actions, propensity-bound refresh) and a serial tail (canonical merge,
// interventions, accounting). With one shard every phase runs inline on
// the caller — no goroutine round-trip for sequential runs.
func (s *Sim) runSpan(res *Result, stop int) {
	nShards := len(s.shards)
	phaseStart := s.phaseSecs
	s.work = kernelWork{}
	if s.memTrace == nil {
		s.memTrace = make([]int64, 0, s.cfg.Days)
	}

	// Persistent worker pool: the workers live for the whole span and
	// receive one shard index per phase dispatch, replacing the per-day
	// goroutine spawn of the reference kernel. The coordinator's writes
	// (s.day, s.curPhase, the dirty flags) happen-before the channel
	// sends, and the workers' writes happen-before wg.Wait returns, so
	// each barrier fully orders the phases.
	var (
		jobs chan int
		wg   sync.WaitGroup
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > nShards {
		workers = nShards
	}
	// A one-worker pool executes the shards in ascending order anyway, so
	// on a single-CPU host (or with one shard) the phases run inline on
	// the caller: same order, no channel round-trips per dispatch.
	inline := workers <= 1 || nShards == 1
	if !inline {
		jobs = make(chan int)
		defer close(jobs)
		for w := 0; w < workers; w++ {
			go func() {
				for si := range jobs {
					s.runPhase(s.curPhase, &s.shards[si])
					wg.Done()
				}
			}()
		}
	}
	dispatch := func(phase int) {
		t0 := time.Now()
		s.curPhase = phase
		if inline {
			for si := 0; si < nShards; si++ {
				s.runPhase(phase, &s.shards[si])
			}
		} else {
			wg.Add(nShards)
			for si := 0; si < nShards; si++ {
				jobs <- si
			}
			wg.Wait()
		}
		s.phaseSecs[phase] += time.Since(t0).Seconds()
	}

	for day := s.ranTo; day < stop; day++ {
		s.day = day
		// Day 0 keeps the seeding events recorded during construction.
		if day > 0 {
			s.todayEvents = s.todayEvents[:0]
		}
		s.runScheduled(day)
		s.prepareTick()

		// Upkeep: the day-driven rebuilds of the cached tables, split
		// across shards; skipped outright on the (common) tick with
		// nothing to refresh.
		if s.omegaDirty || s.maskDirtyAll || (day < len(s.isolExpiry) && len(s.isolExpiry[day]) > 0) {
			dispatch(phUpkeep)
			s.omegaDirty = false
			s.maskDirtyAll = false
			if day < len(s.isolExpiry) {
				s.isolExpiry[day] = nil
			}
		}

		// Transmit: each shard scans the at-risk nodes of its range;
		// reads of neighbor tables are safe because nothing writes
		// during this phase (synchronous update).
		dispatch(phTransmit)

		// Mutate: progression drain + exposure application on owned
		// nodes; risk-counter deltas for remote neighbors go to the
		// outboxes for their owners.
		dispatch(phMutate)

		// Exchange: owners apply the deltas addressed to them. Skipped
		// when no shard sent anything this tick.
		if nShards > 1 {
			var sent int64
			for si := range s.shards {
				sent += s.shards[si].work.crossShardUpdates
			}
			if sent > 0 {
				dispatch(phExchange)
			}
		}

		// Serial tail: fold the shards' outputs in canonical order, then
		// interventions (trigger evaluation + action ensembles) and the
		// daily accounting.
		s.mergeTick(res, day)
		for _, iv := range s.cfg.Interventions {
			iv.Step(s, day, s.ivRNG)
		}
		for _, ev := range s.todayEvents {
			res.Daily[day][ev.To]++
		}
		for st, c := range s.currentByState {
			res.Current[day][st] = int32(c)
		}
		mem := s.MemoryBytes()
		s.memTrace = append(s.memTrace, mem)
		if mem > res.PeakMemoryBytes {
			res.PeakMemoryBytes = mem
		}
	}
	s.ranTo = stop
	s.publishMetrics(phaseStart)
}

// prepareTick refreshes the serial per-tick inputs of the parallel phases:
// the transmissibility-change flag (whose O(n) effInf rebuild the upkeep
// phase splits across shards) and the propensity rejection bound.
// σ(v) · propBound · infContactTW(v) bounds v's total propensity (every
// factor is bounded termwise), letting the kernel reject nodes whose uniform
// draw cannot produce an infection without visiting a single edge.
func (s *Sim) prepareTick() {
	if s.model.Transmissibility != s.lastOmega {
		s.lastOmega = s.model.Transmissibility
		s.omegaDirty = true
	}
	cwMax := 0.0
	for _, w := range s.ctxWeight {
		if w > cwMax {
			cwMax = w
		}
	}
	s.propBound = cwMax * s.iotaMax * s.scaleHW * s.model.Transmissibility
}

// publishMetrics pushes the simulator's observability series into the
// configured registry, once per run segment (never from the hot loop): the
// shard-count gauge, the segment's per-phase wall-clock (the delta over the
// accumulated totals at segment start, so segmented runs observe each span
// once) and the segment's work counts.
func (s *Sim) publishMetrics(phaseStart [numPhases]float64) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Help("epi_shards", "Shard processing units of the simulator run.")
	reg.Gauge("epi_shards").Set(float64(len(s.shards)))
	for ph, name := range phaseNames {
		if d := s.phaseSecs[ph] - phaseStart[ph]; d > 0 {
			reg.Histogram(`epi_span_seconds{span="epihiper.shard.`+name+`"}`, nil).Observe(d)
		}
	}
	for _, c := range []struct {
		name, help string
		n          int64
	}{
		{"epi_kernel_at_risk_visits_total", "Frontier nodes (susceptible with an infectious neighbor) the transmit phase visited.", s.work.atRiskVisits},
		{"epi_kernel_row_scans_total", "Frontier nodes whose contact row was scanned because the thinning bound did not decide.", s.work.rowScans},
		{"epi_kernel_edge_visits_total", "Contacts read by the kernel: row-scan steps plus neighbor updates of the mutate phase.", s.work.edgeVisits},
		{"epi_kernel_exposures_total", "Infections decided by the transmit phase.", s.work.exposures},
		{"epi_kernel_cross_shard_updates_total", "Infectious-contact updates sent to a neighbor's owner on another shard.", s.work.crossShardUpdates},
	} {
		reg.Help(c.name, c.help)
		reg.Counter(c.name).Add(c.n)
	}
}

// runScheduled fires queued actions due on or before the given day, in the
// order they were scheduled, and folds the transitions they made.
func (s *Sim) runScheduled(day int) {
	if len(s.scheduled) == 0 {
		return
	}
	var remaining []scheduledAction
	var due []scheduledAction
	for _, a := range s.scheduled {
		if a.day <= day {
			due = append(due, a)
		} else {
			remaining = append(remaining, a)
		}
	}
	s.scheduled = remaining
	s.dynamicBytes -= int64(len(due)) * perScheduledChangeBytes
	for _, a := range due {
		a.run(s)
	}
	s.foldSerial(day)
}

// transmissionPhase computes exposures for the susceptible nodes of one
// partition. The per-contact propensity follows eq. (1) of the paper:
// ρ = T · w_e · σ(Pˢ)·ι(Pⁱ) · ω, with T the contact duration (fraction of
// a day) and ω the model transmissibility. Whether the node is infected
// during the tick follows the Gillespie construction: with total propensity
// Λ, infection occurs with probability 1 − e^{−Λ}, and the causing contact
// is drawn proportionally to its propensity.
//
// The hot loop runs on the network's CSR view: T·w_e is looked up by the
// contact's record code only for the infectious contacts it prices,
// ω·ι·infectivityScale comes from the per-tick effInf table, and
// each contributing contact's propensity is pushed to the caller's
// scratch buffer so infector selection replays the buffer instead of
// rescanning the edges. The phase performs no heap allocation once the
// buffers have reached steady-state capacity. Its work counts go to the
// partition's shard in one write at the end.
func (s *Sim) transmissionPhase(p synthpop.Partition, day int, buf []exposure, scratch []propEntry) ([]exposure, []propEntry) {
	offsets := s.csr.Offsets
	csrNbr, csrCtx, csrCode, twOf := s.csr.Nbr, s.csr.Ctx, s.csr.Code, s.csr.TW
	infBits := s.effInfBits
	attrs := &s.model.Attrs
	propBound := s.propBound
	var work kernelWork
	// Iterate the frontier — at risk AND susceptible — word by word instead
	// of testing every node: a whole zero word, 64 nodes nobody can infect
	// today, costs two loads, and set bits enumerate in ascending node
	// order so the exposure buffer keeps the canonical order the serial
	// kernel produced.
	risk, susc := s.riskBits, s.susBits
	loWord := int(uint32(p.FirstNode) >> 6)
	hiWord := int(uint32(p.LastNode) >> 6)
	for wi := loWord; wi <= hiWord; wi++ {
		w := risk[wi] & susc[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			pid := int32(wi<<6 | b)
			if pid < p.FirstNode {
				continue // partial first word of an unaligned partition
			}
			if pid > p.LastNode {
				break // partial last word; only reachable when wi == hiWord
			}
			work.atRiskVisits++
			maskV := s.effMaskT[pid]
			if maskV == 0 {
				continue
			}
			sigma := float64(s.susceptibilityScale[pid]) * attrs[s.health[pid]].Susceptibility
			if sigma <= 0 {
				continue
			}
			// Thinning: σ·propBound·(ΣT·w over the infectious contacts)
			// bounds the node's total propensity, so a draw above the
			// corresponding infection probability decides "no infection"
			// without visiting a single edge. The per-(node, tick) RNG
			// stream is consumed identically on both paths, so the bound
			// changes which rows are scanned, never a decision.
			seed := s.nodeSeed(pid, day, phaseTransmission)
			u := stats.FirstFloat64(seed)
			if notInfectedBound(u, sigma*propBound*s.infContactTW(pid)) {
				continue
			}
			work.rowScans++
			need := s.infNbrCount(pid)
			off, end := offsets[pid], offsets[pid+1]
			total := 0.0
			scratch = scratch[:0]
			nbrs := csrNbr[off:end]
			ctxs := csrCtx[off:end]
			codes := csrCode[off:end]
			found := int32(0)
			visited := len(nbrs)
			for i, nb := range nbrs {
				// The bitset check is the common exit (most neighbors are
				// not infectious) and stays in L1 at any network scale; the
				// SoA split means the scan touches only 4 bytes per skipped
				// edge.
				if infBits[uint32(nb)>>6]&(1<<(uint32(nb)&63)) == 0 {
					continue
				}
				found++
				ctx := ctxs[i]
				src := ctx & 7
				if maskV&(1<<src) != 0 && s.effMaskT[nb]&(1<<(ctx>>3)) != 0 {
					// T·w as synthpop's seal computes it once per record,
					// so the product matches the reference kernel's bit
					// for bit.
					prop := twOf[codes[i]] * s.ctxWeight[src] * sigma * s.effInf[nb]
					total += prop
					scratch = append(scratch, propEntry{nbr: nb, p: prop})
				}
				// Every bitset-set neighbor is infectious, and there are at
				// most `need` of those in the row: once all are seen, no
				// later edge can contribute.
				if found == need {
					visited = i + 1
					break
				}
			}
			work.edgeVisits += int64(visited)
			if total <= 0 || !infected(u, total) {
				continue
			}
			// Pick the causing contact proportionally to propensity by
			// replaying the recorded propensities. The draw is the second
			// output of the node's stream (u above was the first).
			r := stats.Seeded(seed)
			r.Uint64()
			target := r.Float64() * total
			acc := 0.0
			infector := NoInfector
			for i := range scratch {
				acc += scratch[i].p
				if acc >= target {
					infector = scratch[i].nbr
					break
				}
			}
			buf = append(buf, exposure{pid: pid, infector: infector})
			work.exposures++
		}
	}
	s.ownerOf(p.FirstNode).work.add(work)
	return buf, scratch
}

// expNeg returns e^{-x} guarding the common small-x case with the two-term
// expansion to avoid the full Exp call in the hot loop.
func expNeg(x float64) float64 {
	if x < 1e-4 {
		return 1 - x + 0.5*x*x
	}
	return math.Exp(-x)
}

// expNegTable[k] = e^{-k/16}, covering x < 37.5 for the banded infection
// test below.
var expNegTable = func() (t [601]float64) {
	for k := range t {
		t[k] = math.Exp(-float64(k) / 16)
	}
	return
}()

// infected reports u < 1 − expNeg(x) — the Gillespie infection test —
// with exactly the result of the direct comparison, while avoiding the
// math.Exp call whenever the draw is clear of the decision boundary.
// A table-plus-quadratic approximation of e^{-x} has absolute error below
// 4.1e-5 on [1e-4, 37) (tail term f³/6 with f ≤ 1/16); draws more than
// eps = 1e-4 away from the approximate boundary are decided outright, and
// only the ~2e-4 fraction inside the band falls back to the exact path.
func infected(u, x float64) bool {
	if x >= 1e-4 && x < 37.0 {
		k := int(x * 16)
		f := x - float64(k)*(1.0/16)
		a := expNegTable[k] * (1 - f + 0.5*f*f)
		const eps = 1e-4
		if u >= 1-(a-eps) {
			return false
		}
		if u < 1-(a+eps) {
			return true
		}
	}
	return u < 1-expNeg(x)
}

// notInfectedBound reports whether the draw u decides "no infection" for
// every possible propensity total ≤ xmax: it is true only when
// u ≥ 1 − expNeg(t) is guaranteed for all t ≤ xmax, with margin covering
// the e^{-x} approximation error and the float slop between the termwise
// bound and the kernel's actual sum. False is always safe — the caller
// then computes the exact total and decides with infected().
func notInfectedBound(u, xmax float64) bool {
	// 1 − e^{−x} ≤ x: most draws are decided here, before the table.
	if u >= xmax+2e-4 {
		return true
	}
	if xmax >= 37.0 {
		return false
	}
	var a float64 // a ≤ e^{-xmax} + 4.1e-5
	if xmax < 1e-4 {
		a = 1 - xmax // 1−x ≤ e^{-x}
	} else {
		k := int(xmax * 16)
		f := xmax - float64(k)*(1.0/16)
		a = expNegTable[k] * (1 - f + 0.5*f*f)
	}
	return u >= 1-(a-2e-4)
}

// Attack returns the final fraction of the population ever infected.
func Attack(res *Result, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(res.TotalInfections) / float64(n)
}
