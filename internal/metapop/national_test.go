package metapop

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/synthpop"
)

func TestNewUSStructure(t *testing.T) {
	m, err := NewUS(DefaultNationalConfig())
	if err != nil {
		t.Fatal(err)
	}
	counties := 0
	for _, st := range synthpop.States {
		counties += st.Counties
	}
	if len(m.Counties) != counties {
		t.Fatalf("%d counties want %d", len(m.Counties), counties)
	}
	if m.links == nil {
		t.Fatal("national model should be sparse")
	}
	// Every county's links sum to 1 (validated by SetSparseLinks, but
	// verify the invariant holds through construction).
	for i, row := range m.links {
		sum := 0.0
		self := false
		for _, l := range row {
			sum += l.W
			if l.To == i {
				self = true
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("county %d links sum to %v", i, sum)
		}
		if !self {
			t.Fatalf("county %d missing self link", i)
		}
	}
}

func TestNationalEpidemicCrossesStates(t *testing.T) {
	m, err := NewUS(DefaultNationalConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Seed only Washington state's hub (the US epidemic's actual entry).
	wa, _ := synthpop.StateByCode("WA")
	hub, err := m.countyIndexByFIPS(int32(synthpop.CountyFIPS(wa.FIPS, 0)))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Beta: 0.5, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2}
	traj, err := m.Run(p, 250, []Seed{{CountyIndex: hub, Infectious: 50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every state eventually sees cases through the hub backbone.
	va, _ := synthpop.StateByCode("VA")
	ny, _ := synthpop.StateByCode("NY")
	for _, st := range []synthpop.StateInfo{va, ny} {
		cum := traj.stateCumConfirmedByPrefix(m, st.FIPS)
		if cum[249] <= 0 {
			t.Fatalf("state %s never infected", st.Code)
		}
	}
	// The seeded state leads early.
	waCum := traj.stateCumConfirmedByPrefix(m, wa.FIPS)
	vaCum := traj.stateCumConfirmedByPrefix(m, va.FIPS)
	if waCum[40] <= vaCum[40] {
		t.Fatal("seeded state does not lead the early epidemic")
	}
	// Total remains bounded by the US population.
	total := traj.StateCumConfirmed()
	pop := 0
	for _, st := range synthpop.States {
		pop += st.Population
	}
	if total[249] > float64(pop) {
		t.Fatalf("confirmed %v exceeds US population", total[249])
	}
}

func TestNationalRunIsFastEnough(t *testing.T) {
	// The sparse structure keeps a 100-day national run cheap: this test
	// fails by timeout if the coupling degenerates to dense.
	m, err := NewUS(DefaultNationalConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Beta: 0.4, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2}
	if _, err := m.Run(p, 100, []Seed{{CountyIndex: 0, Infectious: 10}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetSparseLinksValidation(t *testing.T) {
	ri, _ := synthpop.StateByCode("RI")
	m, _ := NewFromState(ri, 0.85)
	if err := m.SetSparseLinks(make([][]Link, 2)); err == nil {
		t.Error("wrong row count accepted")
	}
	bad := make([][]Link, len(m.Counties))
	for i := range bad {
		bad[i] = []Link{{To: i, W: 0.5}} // sums to 0.5
	}
	if err := m.SetSparseLinks(bad); err == nil {
		t.Error("non-stochastic rows accepted")
	}
	bad2 := make([][]Link, len(m.Counties))
	for i := range bad2 {
		bad2[i] = []Link{{To: 99, W: 1}}
	}
	if err := m.SetSparseLinks(bad2); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestSparseMatchesDenseOnEquivalentModel(t *testing.T) {
	// Convert RI's gravity coupling to sparse links: trajectories must
	// agree.
	ri, _ := synthpop.StateByCode("RI")
	dense, _ := NewFromState(ri, 0.85)
	sparse, _ := NewFromState(ri, 0.85)
	links := make([][]Link, len(dense.Counties))
	for i, row := range couplingMatrix(dense) {
		for j, w := range row {
			if w != 0 {
				links[i] = append(links[i], Link{To: j, W: w})
			}
		}
	}
	if err := sparse.SetSparseLinks(links); err != nil {
		t.Fatal(err)
	}
	p := Params{Beta: 0.5, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.25}
	seeds := []Seed{{CountyIndex: 0, Infectious: 10}}
	a, err := dense.Run(p, 120, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sparse.Run(p, 120, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.StateCumConfirmed(), b.StateCumConfirmed()
	for d := range ca {
		if math.Abs(ca[d]-cb[d]) > 1e-6*(1+ca[d]) {
			t.Fatalf("day %d: dense %v vs sparse %v", d, ca[d], cb[d])
		}
	}
}

func TestCountyIndexByFIPS(t *testing.T) {
	m, _ := NewUS(DefaultNationalConfig())
	va, _ := synthpop.StateByCode("VA")
	fips := int32(synthpop.CountyFIPS(va.FIPS, 0))
	idx, err := m.countyIndexByFIPS(fips)
	if err != nil || m.Counties[idx].FIPS != fips {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := m.countyIndexByFIPS(-5); err == nil {
		t.Error("bogus FIPS accepted")
	}
}

// countyIndexByFIPS returns the index of a county in the model.
func (m *Model) countyIndexByFIPS(fips int32) (int, error) {
	for i, c := range m.Counties {
		if c.FIPS == fips {
			return i, nil
		}
	}
	return 0, fmt.Errorf("metapop: county %d not in model", fips)
}

// stateCumConfirmedByPrefix sums cumulative confirmed over the counties of
// one state (by FIPS prefix) — the state-level series of a national run.
func (t *Trajectory) stateCumConfirmedByPrefix(m *Model, stateFIPS int) []float64 {
	out := make([]float64, t.Days)
	for c := range m.Counties {
		if int(m.Counties[c].FIPS)/1000 != stateFIPS {
			continue
		}
		acc := 0.0
		for d := 0; d < t.Days; d++ {
			acc += t.NewConfirmed[c][d]
			out[d] += acc
		}
	}
	return out
}
