package epihiper

import (
	"fmt"
	"slices"

	"repro/internal/disease"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// Intervention is an external modification of the simulation state: a
// trigger evaluated each tick plus an action ensemble applied when it
// fires (paper Appendix D). Step is called once per tick, after disease
// progression, with the shared intervention RNG; implementations must be
// deterministic given the RNG stream.
type Intervention interface {
	Name() string
	Step(s *Sim, day int, r *stats.RNG)
}

// InterventionState is implemented by interventions that carry mutable
// state across ticks (a compliant set, a pulse phase). Snapshot serializes
// the state of every implementing intervention under its Name and Restore
// decodes it into a matching intervention of the new stack; Fork and
// SwapInterventions copy it across in process. Either way a branched run
// continues exactly where the checkpoint left off.
type InterventionState interface {
	Intervention
	// EncodeState returns the mutable state as bytes.
	EncodeState() []byte
	// DecodeState replaces the mutable state from bytes produced by
	// EncodeState.
	DecodeState([]byte) error
	// CopyState replaces the mutable state with a copy of from's, which
	// shares nothing with it, and reports whether from has the receiver's
	// concrete type; on false nothing changed.
	CopyState(from Intervention) bool
}

// nonHomeContexts lists every context except home.
var nonHomeContexts = []synthpop.Context{
	synthpop.CtxWork, synthpop.CtxShopping, synthpop.CtxOther,
	synthpop.CtxSchool, synthpop.CtxCollege, synthpop.CtxReligion,
}

// nonHomeMask holds the bits of nonHomeContexts: stay-at-home orders switch
// all of them for a person at once.
const nonHomeMask = allContexts &^ homeOnlyMask

// ---------------------------------------------------------------------------
// SC — school closure

// SchoolClosure disables school and college contacts network-wide between
// StartDay and EndDay (exclusive). The paper's VA case study assumes 100%
// compliance with SC.
type SchoolClosure struct {
	StartDay, EndDay int
}

// Name implements Intervention.
func (sc *SchoolClosure) Name() string { return "SC" }

// Step implements Intervention. The closure is enforced every tick while
// active (not only on the boundary days) so that SC composes with
// interventions that also toggle global contexts — place WeekendSchedule
// before SchoolClosure in the intervention list and the closure wins on
// weekdays.
func (sc *SchoolClosure) Step(s *Sim, day int, r *stats.RNG) {
	switch {
	case day >= sc.StartDay && day < sc.EndDay:
		s.SetGlobalContext(synthpop.CtxSchool, false)
		s.SetGlobalContext(synthpop.CtxCollege, false)
	case day == sc.EndDay:
		s.SetGlobalContext(synthpop.CtxSchool, true)
		s.SetGlobalContext(synthpop.CtxCollege, true)
	}
}

// ---------------------------------------------------------------------------
// SH — stay-at-home

// StayAtHome disables all non-home contacts of compliant persons between
// StartDay and EndDay. Compliance is drawn per person when the order
// starts; the compliant set is retained (and contributes to dynamic
// memory, reproducing Figure 10's compliance-proportional growth).
type StayAtHome struct {
	StartDay, EndDay int
	Compliance       float64

	compliant []int32
}

// Name implements Intervention.
func (sh *StayAtHome) Name() string { return "SH" }

// EncodeState implements InterventionState (the compliant set).
func (sh *StayAtHome) EncodeState() []byte { return encodeI32s(sh.compliant) }

// DecodeState implements InterventionState.
func (sh *StayAtHome) DecodeState(b []byte) error {
	v, err := decodeI32s(b)
	if err != nil {
		return err
	}
	sh.compliant = v
	return nil
}

// CopyState implements InterventionState.
func (sh *StayAtHome) CopyState(from Intervention) bool {
	src, ok := from.(*StayAtHome)
	if ok {
		sh.compliant = slices.Clone(src.compliant)
	}
	return ok
}

// Step implements Intervention.
func (sh *StayAtHome) Step(s *Sim, day int, r *stats.RNG) {
	switch day {
	case sh.StartDay:
		n := s.net.NumNodes()
		sh.compliant = sh.compliant[:0]
		for pid := int32(0); int(pid) < n; pid++ {
			if r.Bool(sh.Compliance) {
				sh.compliant = append(sh.compliant, pid)
				s.setContextBits(pid, nonHomeMask, false)
			}
		}
		s.AddDynamicMemory(int64(len(sh.compliant)) * perScheduledChangeBytes)
	case sh.EndDay:
		for _, pid := range sh.compliant {
			s.setContextBits(pid, nonHomeMask, true)
		}
		s.AddDynamicMemory(-int64(len(sh.compliant)) * perScheduledChangeBytes)
	}
}

// ---------------------------------------------------------------------------
// RO — partial reopening

// PartialReopen extends a StayAtHome order: at ReopenDay, a fraction Level
// of the order's compliant persons resume their non-home contacts; the
// remainder stay home until the underlying order expires.
type PartialReopen struct {
	SH        *StayAtHome
	ReopenDay int
	Level     float64 // fraction of compliant persons released
}

// Name implements Intervention.
func (ro *PartialReopen) Name() string { return "RO" }

// Step implements Intervention.
func (ro *PartialReopen) Step(s *Sim, day int, r *stats.RNG) {
	if day != ro.ReopenDay || ro.SH == nil {
		return
	}
	released := 0
	for _, pid := range ro.SH.compliant {
		if r.Bool(ro.Level) {
			s.setContextBits(pid, nonHomeMask, true)
			released++
		}
	}
	s.AddDynamicMemory(int64(released) * perScheduledChangeBytes)
}

// ---------------------------------------------------------------------------
// VHI — voluntary home isolation

// VoluntaryHomeIsolation isolates a fraction of newly symptomatic persons
// at home for IsolationDays.
type VoluntaryHomeIsolation struct {
	Compliance    float64
	IsolationDays int
}

// Name implements Intervention.
func (v *VoluntaryHomeIsolation) Name() string { return "VHI" }

// Step implements Intervention.
func (v *VoluntaryHomeIsolation) Step(s *Sim, day int, r *stats.RNG) {
	days := v.IsolationDays
	if days <= 0 {
		days = 14
	}
	for _, ev := range s.TodayEvents() {
		if ev.To == disease.Symptomatic && r.Bool(v.Compliance) {
			s.Isolate(ev.PID, day+days)
		}
	}
}

// ---------------------------------------------------------------------------
// TA — testing and isolating asymptomatic cases

// TestAndIsolate detects a fraction of current asymptomatic cases each day
// and isolates them ("TA (testing and isolating asymptomatic cases), which
// extends VHI").
type TestAndIsolate struct {
	DailyDetectRate float64
	IsolationDays   int
}

// Name implements Intervention.
func (ta *TestAndIsolate) Name() string { return "TA" }

// Step implements Intervention.
func (ta *TestAndIsolate) Step(s *Sim, day int, r *stats.RNG) {
	days := ta.IsolationDays
	if days <= 0 {
		days = 14
	}
	for _, ev := range s.TodayEvents() {
		if ev.To == disease.Asymptomatic && r.Bool(ta.DailyDetectRate) {
			// Detection lags onset by a 1–3 day test turnaround. The typed
			// schedule keeps the pending isolation snapshotable.
			delay := 1 + r.Intn(3)
			s.ScheduleIsolate(day+delay, ev.PID, day+delay+days)
		}
	}
}

// ---------------------------------------------------------------------------
// PS — pulsing shutdown

// PulsingShutdown repeatedly alternates stay-at-home and reopening with the
// given period: odd pulses are shutdowns, even pulses reopenings. Each
// shutdown re-samples the compliant set, which is what makes PS
// significantly more expensive than a single SH in the paper's Figure 7.
type PulsingShutdown struct {
	StartDay, EndDay int
	PeriodDays       int
	Compliance       float64

	compliant []int32
	active    bool
}

// Name implements Intervention.
func (ps *PulsingShutdown) Name() string { return "PS" }

// Step implements Intervention.
func (ps *PulsingShutdown) Step(s *Sim, day int, r *stats.RNG) {
	period := ps.PeriodDays
	if period <= 0 {
		period = 14
	}
	if day < ps.StartDay || day > ps.EndDay {
		if ps.active && day == ps.EndDay+1 {
			ps.release(s)
		}
		return
	}
	if (day-ps.StartDay)%period != 0 {
		return
	}
	if ps.active {
		ps.release(s)
		return
	}
	// Begin a shutdown pulse: re-sample compliance.
	n := s.net.NumNodes()
	ps.compliant = ps.compliant[:0]
	for pid := int32(0); int(pid) < n; pid++ {
		if r.Bool(ps.Compliance) {
			ps.compliant = append(ps.compliant, pid)
			s.setContextBits(pid, nonHomeMask, false)
		}
	}
	ps.active = true
	s.AddDynamicMemory(int64(len(ps.compliant)) * perScheduledChangeBytes)
}

// EncodeState implements InterventionState (pulse phase + compliant set).
func (ps *PulsingShutdown) EncodeState() []byte {
	b := encodeI32s(ps.compliant)
	if ps.active {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeState implements InterventionState.
func (ps *PulsingShutdown) DecodeState(b []byte) error {
	if len(b) < 1 {
		return fmt.Errorf("epihiper: short PulsingShutdown state")
	}
	v, err := decodeI32s(b[:len(b)-1])
	if err != nil {
		return err
	}
	ps.compliant = v
	ps.active = b[len(b)-1] != 0
	return nil
}

// CopyState implements InterventionState.
func (ps *PulsingShutdown) CopyState(from Intervention) bool {
	src, ok := from.(*PulsingShutdown)
	if ok {
		ps.compliant, ps.active = slices.Clone(src.compliant), src.active
	}
	return ok
}

func (ps *PulsingShutdown) release(s *Sim) {
	for _, pid := range ps.compliant {
		s.setContextBits(pid, nonHomeMask, true)
	}
	ps.active = false
}

// ---------------------------------------------------------------------------
// D1CT / D2CT — contact tracing and isolating

// ContactTracing detects newly symptomatic cases with DetectProb and
// isolates the case plus its contacts out to Distance hops (1 = D1CT,
// 2 = D2CT), each contact complying with TraceCompliance. The breadth-first
// expansion over the contact network is what makes D2CT the most expensive
// intervention in Figure 7 (bottom): it touches degree² ≈ 700 nodes per
// detected case.
type ContactTracing struct {
	Distance        int // 1 or 2
	DetectProb      float64
	TraceCompliance float64
	IsolationDays   int
}

// Name implements Intervention.
func (ct *ContactTracing) Name() string {
	if ct.Distance >= 2 {
		return "D2CT"
	}
	return "D1CT"
}

// Step implements Intervention.
func (ct *ContactTracing) Step(s *Sim, day int, r *stats.RNG) {
	days := ct.IsolationDays
	if days <= 0 {
		days = 14
	}
	dist := ct.Distance
	if dist <= 0 {
		dist = 1
	}
	for _, ev := range s.TodayEvents() {
		if ev.To != disease.Symptomatic || !r.Bool(ct.DetectProb) {
			continue
		}
		s.Isolate(ev.PID, day+days)
		// BFS to the configured distance.
		frontier := []int32{ev.PID}
		seen := map[int32]bool{ev.PID: true}
		for hop := 0; hop < dist; hop++ {
			var next []int32
			for _, u := range frontier {
				for _, v := range s.Neighbors(u) {
					if seen[v] {
						continue
					}
					seen[v] = true
					next = append(next, v)
					if r.Bool(ct.TraceCompliance) {
						s.Isolate(v, day+days)
					}
				}
			}
			frontier = next
		}
	}
}

// ---------------------------------------------------------------------------
// Mask mandate

// MaskMandate scales down the effective contact weight of the non-home
// contexts between StartDay and EndDay (Table V's writable edge weight):
// contacts stay live, but each carries WeightFactor of its transmission
// potential.
type MaskMandate struct {
	StartDay, EndDay int
	// WeightFactor is the residual transmission per contact (e.g. 0.6 for
	// a 40% reduction).
	WeightFactor float64
}

// Name implements Intervention.
func (mm *MaskMandate) Name() string { return "masks" }

// Step implements Intervention.
func (mm *MaskMandate) Step(s *Sim, day int, r *stats.RNG) {
	switch day {
	case mm.StartDay:
		for _, c := range nonHomeContexts {
			s.SetContextWeight(c, mm.WeightFactor)
		}
	case mm.EndDay:
		for _, c := range nonHomeContexts {
			s.SetContextWeight(c, 1)
		}
	}
}

// ---------------------------------------------------------------------------
// Weekend schedule

// WeekendSchedule models the weekly rhythm of the underlying activity data
// (the paper builds week-long activity sequences and projects to a typical
// Wednesday): on Saturdays and Sundays (day mod 7 ∈ {5, 6}) work, school
// and college contacts are globally disabled, and religion contacts are
// only enabled on Sundays when SundayReligion is set.
type WeekendSchedule struct {
	// SundayReligion restricts religion contacts to Sundays.
	SundayReligion bool

	weekdayApplied bool
}

// Name implements Intervention.
func (ws *WeekendSchedule) Name() string { return "weekend" }

// Step implements Intervention.
func (ws *WeekendSchedule) Step(s *Sim, day int, r *stats.RNG) {
	dow := day % 7
	weekend := dow == 5 || dow == 6
	s.SetGlobalContext(synthpop.CtxWork, !weekend)
	s.SetGlobalContext(synthpop.CtxSchool, !weekend)
	s.SetGlobalContext(synthpop.CtxCollege, !weekend)
	if ws.SundayReligion {
		s.SetGlobalContext(synthpop.CtxReligion, dow == 6)
	}
	ws.weekdayApplied = !weekend
}

// EncodeState implements InterventionState.
func (ws *WeekendSchedule) EncodeState() []byte {
	if ws.weekdayApplied {
		return []byte{1}
	}
	return []byte{0}
}

// DecodeState implements InterventionState.
func (ws *WeekendSchedule) DecodeState(b []byte) error {
	if len(b) != 1 {
		return fmt.Errorf("epihiper: bad WeekendSchedule state length %d", len(b))
	}
	ws.weekdayApplied = b[0] != 0
	return nil
}

// CopyState implements InterventionState.
func (ws *WeekendSchedule) CopyState(from Intervention) bool {
	src, ok := from.(*WeekendSchedule)
	if ok {
		ws.weekdayApplied = src.weekdayApplied
	}
	return ok
}

// ---------------------------------------------------------------------------
// Generic trigger/action intervention

// Triggered is the general trigger + action-ensemble form of an EpiHiper
// intervention: When is evaluated every tick against the system state, and
// Do runs when it returns true.
type Triggered struct {
	Label string
	When  func(s *Sim, day int) bool
	Do    func(s *Sim, day int, r *stats.RNG)
}

// Name implements Intervention.
func (t *Triggered) Name() string { return t.Label }

// Step implements Intervention.
func (t *Triggered) Step(s *Sim, day int, r *stats.RNG) {
	if t.When != nil && t.When(s, day) {
		t.Do(s, day, r)
	}
}

// OnDay builds a trigger that fires on exactly one day.
func OnDay(d int) func(*Sim, int) bool {
	return func(_ *Sim, day int) bool { return day == d }
}

// BaseCaseInterventions returns the paper's base-case intervention set for
// performance experiments: VHI + SC + SH (Figure 7 bottom).
func BaseCaseInterventions(shStart, shEnd int, vhiCompliance, shCompliance float64) []Intervention {
	return []Intervention{
		&VoluntaryHomeIsolation{Compliance: vhiCompliance, IsolationDays: 14},
		&SchoolClosure{StartDay: shStart, EndDay: shEnd},
		&StayAtHome{StartDay: shStart, EndDay: shEnd, Compliance: shCompliance},
	}
}
