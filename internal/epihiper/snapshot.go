package epihiper

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/disease"
)

// Snapshot format: a little-endian field sequence behind a magic + version
// header, closed by a CRC32 (IEEE) trailer over everything before it. The
// codec serializes exactly the state that cannot be rebuilt from the
// network and model:
//
//   - clock (day, ranTo) and per-person disease state (health, nextState,
//     switchTick) and scales (infectivityScale, susceptibilityScale),
//   - intervention-visible state (ctxMask, globalCtxMask, maskDirtyAll,
//     isolatedUntil, ctxWeight, Vars, nodeTraits),
//   - counters and accounting (currentByState, cumByState, dynamicBytes,
//     memTrace, todayEvents),
//   - the propensity bound's high-watermark scaleHW (NOT derivable from the
//     current scales — it remembers every scale ever set, and a lower bound
//     would change the kernel's rejection behavior) and lastOmega,
//   - the shared intervention RNG position,
//   - pending typed scheduled actions, and the named state of every
//     intervention implementing InterventionState.
//
// Derived tables (effInf, effInfBits, susBits, effMaskT, infNbr, riskBits,
// the progression calendars, isolExpiry, propBound) are rebuilt at restore:
// each is a pure function of the serialized state, stale calendar entries
// are filtered by switchTick at drain time, and mask refreshes are
// idempotent — so the rebuilt sim is behavior-identical to the original.
const (
	snapMagic   = "EPSNAP"
	snapVersion = uint16(1)
)

// maxSnapSliceLen bounds every decoded count so corrupted lengths fail
// fast instead of attempting a giant allocation.
const maxSnapSliceLen = 1 << 28

// snapWriter accumulates the encoding.
type snapWriter struct{ b []byte }

func (w *snapWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *snapWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *snapWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *snapWriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *snapWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *snapWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *snapWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *snapWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *snapWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}

// snapReader decodes the encoding; every read is bounds-checked and the
// first failure latches into err so callers can chain reads and check once.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("epihiper: snapshot decode: "+format, args...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated at offset %d (want %d bytes of %d)", r.off, n, len(r.b))
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *snapReader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}
func (r *snapReader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}
func (r *snapReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}
func (r *snapReader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}
func (r *snapReader) i32() int32    { return int32(r.u32()) }
func (r *snapReader) i64() int64    { return int64(r.u64()) }
func (r *snapReader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *snapReader) boolean() bool { return r.u8() != 0 }
func (r *snapReader) length() int {
	n := int(r.u32())
	if n > maxSnapSliceLen {
		r.fail("implausible length %d", n)
		return 0
	}
	return n
}
func (r *snapReader) str() string {
	n := r.length()
	v := r.take(n)
	if v == nil {
		return ""
	}
	return string(v)
}
func (r *snapReader) bytesField() []byte {
	n := r.length()
	v := r.take(n)
	if v == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}

// encodeI32s renders an int32 slice as length-prefixed little-endian bytes
// (the InterventionState codecs share it).
func encodeI32s(v []int32) []byte {
	var w snapWriter
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.i32(x)
	}
	return w.b
}

// decodeI32s is the inverse of encodeI32s.
func decodeI32s(b []byte) ([]int32, error) {
	r := snapReader{b: b}
	n := r.length()
	out := make([]int32, 0, min(n, 1<<16))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.i32())
	}
	if r.err == nil && r.off != len(b) {
		r.fail("%d trailing bytes", len(b)-r.off)
	}
	return out, r.err
}

// Snapshot serializes the full mutable simulation state at a day boundary.
// It must be called between days (after Run/RunPrefix returned, not from
// inside an intervention). A pending closure action queued via Schedule
// cannot be serialized and makes Snapshot fail.
func (s *Sim) Snapshot() ([]byte, error) {
	for _, a := range s.scheduled {
		if a.kind == opOpaque {
			return nil, fmt.Errorf("epihiper: cannot snapshot with a pending opaque scheduled action (day %d)", a.day)
		}
	}
	n := s.net.NumNodes()
	var w snapWriter
	w.b = make([]byte, 0, 64+n*16)
	w.b = append(w.b, snapMagic...)
	w.u16(snapVersion)
	w.u32(uint32(n))
	w.i64(int64(s.day))
	w.i64(int64(s.ranTo))
	for _, h := range s.health {
		w.u8(uint8(h))
	}
	for _, h := range s.nextState {
		w.u8(uint8(h))
	}
	for _, t := range s.switchTick {
		w.i32(t)
	}
	for _, v := range s.infectivityScale {
		w.u32(math.Float32bits(v))
	}
	for _, v := range s.susceptibilityScale {
		w.u32(math.Float32bits(v))
	}
	w.b = append(w.b, s.ctxMask...)
	w.u8(s.globalCtxMask)
	w.bool(s.maskDirtyAll)
	for _, v := range s.isolatedUntil {
		w.i32(v)
	}
	for _, v := range s.ctxWeight {
		w.f64(v)
	}
	// Maps in sorted key order for a canonical encoding.
	varKeys := make([]string, 0, len(s.Vars))
	for k := range s.Vars {
		varKeys = append(varKeys, k)
	}
	sort.Strings(varKeys)
	w.u32(uint32(len(varKeys)))
	for _, k := range varKeys {
		w.str(k)
		w.f64(s.Vars[k])
	}
	traitKeys := make([]string, 0, len(s.nodeTraits))
	for k := range s.nodeTraits {
		traitKeys = append(traitKeys, k)
	}
	sort.Strings(traitKeys)
	w.u32(uint32(len(traitKeys)))
	for _, k := range traitKeys {
		w.str(k)
		for _, v := range s.nodeTraits[k] {
			w.f64(v)
		}
	}
	for _, v := range s.currentByState {
		w.i64(int64(v))
	}
	for _, v := range s.cumByState {
		w.i64(v)
	}
	w.i64(s.dynamicBytes)
	w.f64(s.scaleHW)
	w.f64(s.lastOmega)
	for _, v := range s.ivRNG.State() {
		w.u64(v)
	}
	w.u32(uint32(len(s.todayEvents)))
	for _, ev := range s.todayEvents {
		w.i32(ev.PID)
		w.u8(uint8(ev.From))
		w.u8(uint8(ev.To))
		w.i32(ev.Infector)
	}
	w.u32(uint32(len(s.memTrace)))
	for _, v := range s.memTrace {
		w.i64(v)
	}
	w.u32(uint32(len(s.scheduled)))
	for _, a := range s.scheduled {
		w.i64(int64(a.day))
		w.u8(a.kind)
		switch a.kind {
		case opSeedPersons:
			w.u32(uint32(len(a.pids)))
			for _, pid := range a.pids {
				w.i32(pid)
			}
		case opIsolate:
			w.i32(a.pid)
			w.i32(a.until)
		}
	}
	type ivState struct {
		name string
		data []byte
	}
	var states []ivState
	for _, iv := range s.cfg.Interventions {
		if st, ok := iv.(InterventionState); ok {
			states = append(states, ivState{name: iv.Name(), data: st.EncodeState()})
		}
	}
	w.u32(uint32(len(states)))
	for _, st := range states {
		w.str(st.name)
		w.bytes(st.data)
	}
	w.u32(crc32.ChecksumIEEE(w.b))
	return w.b, nil
}

// Restore replaces the simulation's mutable state with a checkpoint
// produced by Snapshot on a sim with the same network, model and horizon.
// Derived tables are rebuilt; intervention state is transferred by name
// into the sim's current intervention stack. On error the sim is left
// unusable and must be discarded (decoding is not transactional).
func (s *Sim) Restore(data []byte) error {
	if len(data) < len(snapMagic)+2+4 {
		return fmt.Errorf("epihiper: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("epihiper: bad snapshot magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return fmt.Errorf("epihiper: snapshot checksum mismatch (got %08x want %08x)", got, want)
	}
	r := snapReader{b: body, off: len(snapMagic)}
	if v := r.u16(); v != snapVersion {
		return fmt.Errorf("epihiper: unsupported snapshot version %d", v)
	}
	n := s.net.NumNodes()
	if got := int(r.u32()); got != n {
		return fmt.Errorf("epihiper: snapshot for %d nodes, sim has %d", got, n)
	}
	day := int(r.i64())
	ranTo := int(r.i64())
	// day lags ranTo by one at a day boundary (it is the last executed
	// day; runSpan advances it at the top of each tick).
	if r.err == nil && (ranTo < 0 || ranTo > s.cfg.Days || day < 0 || day > ranTo) {
		return fmt.Errorf("epihiper: snapshot clock day=%d ranTo=%d outside horizon %d", day, ranTo, s.cfg.Days)
	}
	for i := 0; i < n; i++ {
		st := disease.State(r.u8())
		if r.err == nil && st >= disease.NumStates {
			return fmt.Errorf("epihiper: person %d in invalid state %d", i, st)
		}
		s.health[i] = st
	}
	for i := 0; i < n; i++ {
		st := disease.State(r.u8())
		if r.err == nil && st >= disease.NumStates {
			return fmt.Errorf("epihiper: person %d invalid next state %d", i, st)
		}
		s.nextState[i] = st
	}
	for i := 0; i < n; i++ {
		s.switchTick[i] = r.i32()
	}
	for i := 0; i < n; i++ {
		s.infectivityScale[i] = math.Float32frombits(r.u32())
	}
	for i := 0; i < n; i++ {
		s.susceptibilityScale[i] = math.Float32frombits(r.u32())
	}
	copy(s.ctxMask, r.take(n))
	s.globalCtxMask = r.u8()
	s.maskDirtyAll = r.boolean()
	for i := 0; i < n; i++ {
		s.isolatedUntil[i] = r.i32()
	}
	for i := range s.ctxWeight {
		s.ctxWeight[i] = r.f64()
	}
	s.Vars = make(map[string]float64)
	for i, m := 0, r.length(); i < m && r.err == nil; i++ {
		k := r.str()
		s.Vars[k] = r.f64()
	}
	s.nodeTraits = nil
	if m := r.length(); m > 0 {
		s.nodeTraits = make(map[string][]float64, m)
		for i := 0; i < m && r.err == nil; i++ {
			k := r.str()
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = r.f64()
			}
			s.nodeTraits[k] = vals
		}
	}
	for i := range s.currentByState {
		s.currentByState[i] = int(r.i64())
	}
	for i := range s.cumByState {
		s.cumByState[i] = r.i64()
	}
	s.dynamicBytes = r.i64()
	s.scaleHW = r.f64()
	s.lastOmega = r.f64()
	var rngState [4]uint64
	for i := range rngState {
		rngState[i] = r.u64()
	}
	s.todayEvents = s.todayEvents[:0]
	for i, m := 0, r.length(); i < m && r.err == nil; i++ {
		ev := TransitionEvent{PID: r.i32(), From: disease.State(r.u8()), To: disease.State(r.u8()), Infector: r.i32()}
		s.todayEvents = append(s.todayEvents, ev)
	}
	s.memTrace = s.memTrace[:0]
	for i, m := 0, r.length(); i < m && r.err == nil; i++ {
		s.memTrace = append(s.memTrace, r.i64())
	}
	s.scheduled = nil
	for i, m := 0, r.length(); i < m && r.err == nil; i++ {
		a := scheduledAction{day: int(r.i64()), kind: r.u8()}
		switch a.kind {
		case opSeedPersons:
			cnt := r.length()
			a.pids = make([]int32, 0, min(cnt, 1<<16))
			for j := 0; j < cnt && r.err == nil; j++ {
				a.pids = append(a.pids, r.i32())
			}
		case opIsolate:
			a.pid = r.i32()
			a.until = r.i32()
		default:
			return fmt.Errorf("epihiper: snapshot holds unknown scheduled-action kind %d", a.kind)
		}
		s.scheduled = append(s.scheduled, a)
	}
	type ivState struct {
		name string
		data []byte
	}
	var states []ivState
	for i, m := 0, r.length(); i < m && r.err == nil; i++ {
		states = append(states, ivState{name: r.str(), data: r.bytesField()})
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(body) {
		return fmt.Errorf("epihiper: %d trailing snapshot bytes", len(body)-r.off)
	}
	// All fields decoded; commit the clock and rebuild the derived tables.
	s.day = day
	s.ranTo = ranTo
	if err := s.ivRNG.SetState(rngState); err != nil {
		return err
	}
	for _, st := range states {
		s.applyInterventionState(st.name, st.data)
	}
	s.rebuildDerived()
	return nil
}

// applyInterventionState decodes saved state into the first stack
// intervention with the matching name. A name with no taker is skipped: the
// restoring stack may legitimately drop interventions the checkpointed one
// had (a branch cannot change the past, but its future stack may differ).
func (s *Sim) applyInterventionState(name string, data []byte) {
	for _, iv := range s.cfg.Interventions {
		if iv.Name() != name {
			continue
		}
		if st, ok := iv.(InterventionState); ok {
			if err := st.DecodeState(data); err == nil {
				return
			}
		}
	}
}

// rebuildDerived recomputes every table that is a pure function of the
// serialized state: effective-infectivity caches and the susceptible bitset,
// context masks, infectious-contact words with the at-risk bitset,
// progression calendars and isolation-expiry lists.
func (s *Sim) rebuildDerived() {
	n := s.net.NumNodes()
	clear(s.infNbr)
	clear(s.riskBits)
	for i := 0; i < n; i++ {
		s.updateEffInf(int32(i))
		s.effMaskT[i] = s.effMask(int32(i))
	}
	for pid := int32(0); int(pid) < n; pid++ {
		if s.model.IsInfectious(s.health[pid]) {
			s.bumpNeighbors(&s.serial, pid, 0)
		}
	}
	// Progression calendars live on their owner shards: the snapshot knows
	// nothing about shard counts (it serializes canonical node order), so
	// restore redistributes switchTick into whatever sharding THIS sim
	// runs — a snapshot taken at shard count A restores at any count B.
	for si := range s.shards {
		s.shards[si].calendar = make([][]uint64, s.cfg.Days)
	}
	for pid := int32(0); int(pid) < n; pid++ {
		if fire := s.switchTick[pid]; fire >= int32(s.ranTo) && int(fire) < s.cfg.Days {
			s.ownerOf(pid).schedule(pid, int(fire))
		}
	}
	s.isolExpiry = make([][]int32, s.cfg.Days)
	for pid := int32(0); int(pid) < n; pid++ {
		if until := s.isolatedUntil[pid]; until >= int32(s.ranTo) && int(until) < len(s.isolExpiry) {
			s.isolExpiry[until] = append(s.isolExpiry[until], pid)
		}
	}
}

// NewFromSnapshot builds a simulation positioned mid-horizon from a
// checkpoint: the configuration supplies the (immutable) network, model,
// horizon and the branch's intervention stack; the snapshot supplies the
// state. The configured Seeds/SeedPersons are NOT re-applied — the
// checkpoint already contains their effects. RunSuffix continues the run.
func NewFromSnapshot(cfg Config, data []byte) (*Sim, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(data); err != nil {
		return nil, err
	}
	return s, nil
}

// SwapInterventions replaces the intervention stack mid-run, transferring
// the named state of the outgoing stack into the incoming one (the same
// by-name handover a snapshot restore performs). It is the from-scratch
// path of a what-if branch: run the shared stack to the pivot, swap in the
// scenario stack, continue — and must be equivalent to branching from a
// snapshot taken at the pivot.
func (s *Sim) SwapInterventions(ivs []Intervention) {
	type saved struct {
		name string
		data []byte
	}
	var states []saved
	for _, iv := range s.cfg.Interventions {
		if st, ok := iv.(InterventionState); ok {
			states = append(states, saved{name: iv.Name(), data: st.EncodeState()})
		}
	}
	s.cfg.Interventions = ivs
	for _, st := range states {
		s.applyInterventionState(st.name, st.data)
	}
}
