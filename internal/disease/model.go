// Package disease implements the probabilistic timed transition system
// (PTTS) disease models used by the agent-based simulator: health states,
// age-stratified transition probabilities, dwell-time distributions, and
// per-state transmission attributes (infectivity / susceptibility).
//
// The COVID-19 model encoded in COVID19 mirrors Figure 12 and Tables III/IV
// of the paper (which in turn follow the CDC "best guess" planning
// parameters of March 31, 2020). The published table's probability columns
// reconstruct exactly: every state's out-probabilities sum to 1 for all
// five age bands.
package disease

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// State is a health state in the disease progression model.
type State uint8

// Health states of the COVID-19 PTTS (Figure 12). The (D) variants mark the
// track that terminates in death; the (H) variant marks medical attention
// that leads to hospitalization.
const (
	Susceptible State = iota
	Exposed
	Presymptomatic
	Symptomatic
	Asymptomatic
	Attended      // medical attention, recovering track
	AttendedH     // medical attention, resulting in hospitalization
	AttendedD     // medical attention, resulting in death
	Hospitalized  // hospitalized, recovering track
	HospitalizedD // hospitalized, resulting in death
	Ventilated    // ventilated, recovering track
	VentilatedD   // ventilated, resulting in death
	Recovered
	Dead
	RxFailure // treatment failure: susceptible again (Table IV)
	NumStates
)

var stateNames = [NumStates]string{
	"Susceptible", "Exposed", "Presymptomatic", "Symptomatic", "Asymptomatic",
	"Attended", "Attended(H)", "Attended(D)",
	"Hospitalized", "Hospitalized(D)", "Ventilated", "Ventilated(D)",
	"Recovered", "Dead", "RxFailure",
}

// String returns the state's display name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// AgeGroup indexes the five age bands of Table III.
type AgeGroup uint8

// The five age bands used by the CDC planning parameters.
const (
	Age0to4 AgeGroup = iota
	Age5to17
	Age18to49
	Age50to64
	Age65Plus
	NumAgeGroups
)

var ageGroupNames = [NumAgeGroups]string{"0-4", "5-17", "18-49", "50-64", "65+"}

// String returns the age band's display name.
func (a AgeGroup) String() string {
	if int(a) < len(ageGroupNames) {
		return ageGroupNames[a]
	}
	return fmt.Sprintf("AgeGroup(%d)", uint8(a))
}

// AgeGroupOf maps an age in years to its Table III band.
func AgeGroupOf(age int) AgeGroup {
	switch {
	case age <= 4:
		return Age0to4
	case age <= 17:
		return Age5to17
	case age <= 49:
		return Age18to49
	case age <= 64:
		return Age50to64
	default:
		return Age65Plus
	}
}

// Transition is one edge of the progression diagram: on leaving From, the
// individual moves to To with the age-specific probability, after a dwell
// time (in ticks, i.e. days) drawn from the age-specific distribution.
type Transition struct {
	From, To State
	Prob     [NumAgeGroups]float64
	Dwell    [NumAgeGroups]stats.Dist
}

// uniformProb fills all age bands with p.
func uniformProb(p float64) [NumAgeGroups]float64 {
	return [NumAgeGroups]float64{p, p, p, p, p}
}

// uniformDwell fills all age bands with d.
func uniformDwell(d stats.Dist) [NumAgeGroups]stats.Dist {
	return [NumAgeGroups]stats.Dist{d, d, d, d, d}
}

// StateAttr carries the per-state transmission attributes of Table IV.
type StateAttr struct {
	// Infectivity scales an infectious contact's force of infection;
	// zero means the state is not infectious.
	Infectivity float64
	// Susceptibility scales the probability of acquiring infection;
	// zero means the state cannot be infected.
	Susceptibility float64
}

// Model is a complete PTTS disease model.
type Model struct {
	Name string
	// Transmissibility is the global scaling factor ω applied to every
	// transmission propensity (Table IV: 0.18; the calibration workflows
	// treat it as the parameter TAU).
	Transmissibility float64
	// Attrs holds per-state infectivity and susceptibility.
	Attrs [NumStates]StateAttr
	// ExposedState is the state a successful transmission moves the
	// susceptible individual into.
	ExposedState State
	// transitions[s] lists the out-edges of state s. Empty slices mark
	// terminal states.
	transitions [NumStates][]Transition
}

// AddTransition appends a transition to the model.
func (m *Model) AddTransition(t Transition) {
	m.transitions[t.From] = append(m.transitions[t.From], t)
}

// Transitions returns the out-edges of state s (shared slice; do not
// mutate).
func (m *Model) Transitions(s State) []Transition { return m.transitions[s] }

// IsInfectious reports whether s can transmit.
func (m *Model) IsInfectious(s State) bool { return m.Attrs[s].Infectivity > 0 }

// IsSusceptible reports whether s can be infected.
func (m *Model) IsSusceptible(s State) bool { return m.Attrs[s].Susceptibility > 0 }

// Next samples the next state and a dwell time (ticks to remain in the
// current state before switching) for an individual of age band ag in state
// s. ok is false when s is terminal.
//
// The simulator calls Next once per transition with a generator on its
// stack, so r must not escape: the Table III dwell types are sampled through
// their concrete methods, and only a foreign stats.Dist — whose Sample the
// compiler cannot see into — draws from a copy that is written back.
func (m *Model) Next(s State, ag AgeGroup, r *stats.RNG) (next State, dwell int, ok bool) {
	ts := m.transitions[s]
	if len(ts) == 0 {
		return s, 0, false
	}
	u := r.Float64()
	acc := 0.0
	pick := len(ts) - 1
	for i := range ts {
		acc += ts[i].Prob[ag]
		if u < acc {
			pick = i
			break
		}
	}
	t := &ts[pick]
	var d float64
	switch dist := t.Dwell[ag].(type) {
	case stats.Fixed:
		d = dist.Sample(r)
	case stats.TruncNormal:
		d = dist.Sample(r)
	case stats.Discrete:
		d = dist.Sample(r)
	default:
		c := *r
		d = dist.Sample(&c)
		*r = c
	}
	ticks := int(math.Round(d))
	if ticks < 1 {
		ticks = 1
	}
	return t.To, ticks, true
}

// Validate checks structural invariants: out-probabilities sum to 1 (or the
// state is terminal), dwell distributions are present, probabilities lie in
// [0, 1], and the exposed state is reachable and not susceptible.
func (m *Model) Validate() error {
	const tol = 1e-9
	for s := State(0); s < NumStates; s++ {
		ts := m.transitions[s]
		if len(ts) == 0 {
			continue
		}
		for ag := AgeGroup(0); ag < NumAgeGroups; ag++ {
			sum := 0.0
			for _, t := range ts {
				p := t.Prob[ag]
				if p < -tol || p > 1+tol {
					return fmt.Errorf("disease: %v→%v prob %g out of [0,1] for ages %v", t.From, t.To, p, ag)
				}
				if t.Dwell[ag] == nil {
					return fmt.Errorf("disease: %v→%v missing dwell distribution for ages %v", t.From, t.To, ag)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return fmt.Errorf("disease: state %v out-probabilities sum to %g for ages %v", s, sum, ag)
			}
		}
	}
	if m.Transmissibility < 0 {
		return fmt.Errorf("disease: negative transmissibility %g", m.Transmissibility)
	}
	// Non-negative attributes make IsInfectious equivalent to
	// Infectivity != 0, the invariant behind the simulator's
	// infectious-neighbor counters and effective-infectivity bitset.
	for s := State(0); s < NumStates; s++ {
		if m.Attrs[s].Infectivity < 0 {
			return fmt.Errorf("disease: negative infectivity %g in state %v", m.Attrs[s].Infectivity, s)
		}
		if m.Attrs[s].Susceptibility < 0 {
			return fmt.Errorf("disease: negative susceptibility %g in state %v", m.Attrs[s].Susceptibility, s)
		}
	}
	if m.Attrs[m.ExposedState].Susceptibility > 0 {
		return fmt.Errorf("disease: exposed state %v is itself susceptible", m.ExposedState)
	}
	return nil
}

// Clone returns a deep copy of the model; the per-transition distributions
// are shared (they are immutable by convention).
func (m *Model) Clone() *Model {
	c := &Model{
		Name:             m.Name,
		Transmissibility: m.Transmissibility,
		Attrs:            m.Attrs,
		ExposedState:     m.ExposedState,
	}
	for s := range m.transitions {
		c.transitions[s] = append([]Transition(nil), m.transitions[s]...)
	}
	return c
}
