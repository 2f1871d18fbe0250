package disease

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestCOVID19Validates(t *testing.T) {
	if err := COVID19().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDiseaseModelMatchesPaper pins the Table III / Table IV values the
// extraction recovered unambiguously.
func TestDiseaseModelMatchesPaper(t *testing.T) {
	m := COVID19()
	if m.Transmissibility != 0.18 {
		t.Errorf("transmissibility %v want 0.18 (Table IV)", m.Transmissibility)
	}
	if m.Attrs[Presymptomatic].Infectivity != 0.8 {
		t.Errorf("presymptomatic infectivity %v want 0.8", m.Attrs[Presymptomatic].Infectivity)
	}
	if m.Attrs[Symptomatic].Infectivity != 1.0 || m.Attrs[Asymptomatic].Infectivity != 1.0 {
		t.Error("symptomatic/asymptomatic infectivity should be 1.0")
	}
	if m.Attrs[Susceptible].Susceptibility != 1.0 || m.Attrs[RxFailure].Susceptibility != 1.0 {
		t.Error("susceptible/RxFailure susceptibility should be 1.0")
	}
	// Exposed branch split: 0.35 asymptomatic / 0.65 presymptomatic.
	var pa, pp float64
	for _, tr := range m.Transitions(Exposed) {
		switch tr.To {
		case Asymptomatic:
			pa = tr.Prob[Age18to49]
		case Presymptomatic:
			pp = tr.Prob[Age18to49]
		}
	}
	if pa != 0.35 || pp != 0.65 {
		t.Errorf("exposed split %v/%v want 0.35/0.65", pa, pp)
	}
	// Symptomatic out-probabilities by age band (Table III).
	wantAttd := [NumAgeGroups]float64{0.9594, 0.9894, 0.9594, 0.912, 0.788}
	wantAttdD := [NumAgeGroups]float64{0.0006, 0.0006, 0.0006, 0.003, 0.017}
	wantAttdH := [NumAgeGroups]float64{0.04, 0.01, 0.04, 0.085, 0.195}
	for _, tr := range m.Transitions(Symptomatic) {
		var want [NumAgeGroups]float64
		switch tr.To {
		case Attended:
			want = wantAttd
		case AttendedD:
			want = wantAttdD
		case AttendedH:
			want = wantAttdH
		default:
			t.Fatalf("unexpected symptomatic transition to %v", tr.To)
		}
		if tr.Prob != want {
			t.Errorf("Symptomatic→%v probs %v want %v", tr.To, tr.Prob, want)
		}
	}
}

// TestFig12ModelStructure verifies the shape of the progression diagram:
// which states are terminal, which are infectious, and that every
// non-terminal state reaches a terminal one.
func TestFig12ModelStructure(t *testing.T) {
	m := COVID19()
	for _, s := range []State{Recovered, Dead} {
		if !terminal(m, s) {
			t.Errorf("%v should be terminal", s)
		}
	}
	for _, s := range []State{Exposed, Symptomatic, Hospitalized, HospitalizedD} {
		if terminal(m, s) {
			t.Errorf("%v should not be terminal", s)
		}
	}
	var inf []State
	for s := State(0); s < NumStates; s++ {
		if m.IsInfectious(s) {
			inf = append(inf, s)
		}
	}
	if len(inf) != 3 {
		t.Fatalf("infectious states %v want exactly {Presymptomatic, Symptomatic, Asymptomatic}", inf)
	}
	// Reachability of a terminal state from Exposed.
	visited := map[State]bool{}
	var reachTerminal func(s State) bool
	reachTerminal = func(s State) bool {
		if terminal(m, s) {
			return true
		}
		if visited[s] {
			return false
		}
		visited[s] = true
		for _, tr := range m.Transitions(s) {
			if reachTerminal(tr.To) {
				return true
			}
		}
		return false
	}
	if !reachTerminal(Exposed) {
		t.Fatal("no terminal state reachable from Exposed")
	}
	// The death track never reaches Recovered.
	for _, s := range []State{AttendedD, HospitalizedD, VentilatedD} {
		stack := []State{s}
		seen := map[State]bool{}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			if cur == Recovered {
				t.Fatalf("death-track state %v reaches Recovered", s)
			}
			for _, tr := range m.Transitions(cur) {
				stack = append(stack, tr.To)
			}
		}
	}
}

func TestAgeGroupOf(t *testing.T) {
	cases := []struct {
		age  int
		want AgeGroup
	}{
		{0, Age0to4}, {4, Age0to4}, {5, Age5to17}, {17, Age5to17},
		{18, Age18to49}, {49, Age18to49}, {50, Age50to64}, {64, Age50to64},
		{65, Age65Plus}, {99, Age65Plus},
	}
	for _, c := range cases {
		if got := AgeGroupOf(c.age); got != c.want {
			t.Errorf("AgeGroupOf(%d) = %v want %v", c.age, got, c.want)
		}
	}
}

func TestNextTerminal(t *testing.T) {
	m := COVID19()
	r := stats.NewRNG(1)
	if _, _, ok := m.Next(Recovered, Age18to49, r); ok {
		t.Fatal("Next from terminal state returned ok")
	}
}

func TestNextRespectsProbabilities(t *testing.T) {
	m := COVID19()
	r := stats.NewRNG(2)
	const n = 100000
	counts := map[State]int{}
	for i := 0; i < n; i++ {
		next, dwell, ok := m.Next(Exposed, Age18to49, r)
		if !ok {
			t.Fatal("Exposed should progress")
		}
		if dwell < 1 {
			t.Fatalf("dwell %d < 1", dwell)
		}
		counts[next]++
	}
	asymFrac := float64(counts[Asymptomatic]) / n
	if math.Abs(asymFrac-0.35) > 0.01 {
		t.Fatalf("asymptomatic fraction %v want 0.35", asymFrac)
	}
}

// Run many full progressions and check the absorbing distribution: death
// fraction among 65+ symptomatic-branch cases must exceed that of children.
func TestProgressionMortalityGradient(t *testing.T) {
	m := COVID19()
	deathFrac := func(ag AgeGroup, seed uint64) float64 {
		r := stats.NewRNG(seed)
		const n = 30000
		dead := 0
		for i := 0; i < n; i++ {
			s := Exposed
			for steps := 0; steps < 100; steps++ {
				next, _, ok := m.Next(s, ag, r)
				if !ok {
					break
				}
				s = next
			}
			if s == Dead {
				dead++
			}
		}
		return float64(dead) / n
	}
	young := deathFrac(Age5to17, 3)
	old := deathFrac(Age65Plus, 4)
	if old <= young*5 {
		t.Fatalf("mortality gradient too weak: young %v old %v", young, old)
	}
	if old < 0.01 || old > 0.25 {
		t.Fatalf("65+ infection fatality %v outside plausible band", old)
	}
}

// Every progression terminates in Recovered or Dead within a bounded number
// of steps (no cycles in the COVID model).
func TestProgressionTerminatesQuick(t *testing.T) {
	m := COVID19()
	err := quick.Check(func(seed uint32, agRaw uint8) bool {
		r := stats.NewRNG(uint64(seed))
		ag := AgeGroup(agRaw % uint8(NumAgeGroups))
		s := Exposed
		for steps := 0; steps < 64; steps++ {
			next, _, ok := m.Next(s, ag, r)
			if !ok {
				return s == Recovered || s == Dead
			}
			s = next
		}
		return false
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadSum(t *testing.T) {
	m := &Model{Name: "bad", ExposedState: Exposed}
	m.Attrs[Susceptible] = StateAttr{Susceptibility: 1}
	m.AddTransition(Transition{
		From: Exposed, To: Recovered,
		Prob:  uniformProb(0.5), // sums to 0.5, not 1
		Dwell: uniformDwell(stats.Fixed{V: 1}),
	})
	if err := m.Validate(); err == nil {
		t.Fatal("bad probability sum accepted")
	}
}

func TestValidateCatchesMissingDwell(t *testing.T) {
	m := &Model{Name: "bad", ExposedState: Exposed}
	tr := Transition{From: Exposed, To: Recovered, Prob: uniformProb(1)}
	m.AddTransition(tr)
	if err := m.Validate(); err == nil {
		t.Fatal("missing dwell accepted")
	}
}

func TestValidateCatchesSusceptibleExposedState(t *testing.T) {
	m := SIR(0.1, 3)
	m.ExposedState = Susceptible
	if err := m.Validate(); err == nil {
		t.Fatal("susceptible exposed state accepted")
	}
}

func TestSIRValidates(t *testing.T) {
	if err := SIR(0.2, 4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := COVID19()
	c := m.Clone()
	c.Transmissibility = 0.5
	c.AddTransition(Transition{From: Recovered, To: Susceptible,
		Prob: uniformProb(1), Dwell: uniformDwell(stats.Fixed{V: 30})})
	if m.Transmissibility != 0.18 {
		t.Fatal("clone mutated original transmissibility")
	}
	if !terminal(m, Recovered) {
		t.Fatal("clone mutated original transitions")
	}
	if terminal(c, Recovered) {
		t.Fatal("clone did not take new transition")
	}
}

func TestStateStrings(t *testing.T) {
	if Susceptible.String() != "Susceptible" || Dead.String() != "Dead" {
		t.Error("state names wrong")
	}
	if State(200).String() == "" {
		t.Error("out-of-range state name empty")
	}
	if Age65Plus.String() != "65+" || AgeGroup(99).String() == "" {
		t.Error("age group names wrong")
	}
}

// terminal reports whether s has no out-transitions in m.
func terminal(m *Model, s State) bool { return len(m.Transitions(s)) == 0 }
