// Package metapop implements the county-level metapopulation SEIR model of
// the paper's case study 2: mechanistic SEIR dynamics within each county of
// a state, coupled through a commuting matrix, "cheap to run" so that
// calibration can simulate directly inside the MCMC loop (Appendix E,
// "Metapopulation Model Calibration").
package metapop

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/synthpop"
)

// County is one patch of the metapopulation.
type County struct {
	FIPS int32
	Pop  float64
}

// Model is a fixed geography: counties plus a row-stochastic coupling. The
// gravity coupling of NewFromState gives county c the weight s on itself and
// (1−s)·N_j / Σ_{k≠c} N_k on county j ≠ c, so c's infectious pressure is
// s·I_c/N_c + (1−s)·Σ_{j≠c} I_j / Σ_{j≠c} N_j: O(counties) per day.
type Model struct {
	State    string
	Counties []County
	// selfWeight is s; a one-county region has s = 1.
	selfWeight float64
	// offPop[c] is Σ_{j≠c} N_j, summed without cancellation.
	offPop []float64
	// links, when non-nil, replaces the gravity coupling (see
	// SetSparseLinks / NewUS).
	links [][]Link
}

// Params are the disease-dynamics parameters explored by calibration.
type Params struct {
	Beta   float64 // transmission rate (per day)
	Sigma  float64 // 1 / latent period
	Gamma  float64 // 1 / infectious period
	Detect float64 // fraction of infections that become confirmed cases
}

// R0 returns the basic reproduction number of the parameters.
func (p Params) R0() float64 {
	if p.Gamma == 0 {
		return 0
	}
	return p.Beta / p.Gamma
}

// Scenario modifies transmission over a time window: Beta is multiplied by
// Factor for days in [Start, End). The paper's case study 2 models five
// scenarios of social-distancing timing and strength this way.
type Scenario struct {
	Name       string
	Start, End int
	Factor     float64
}

// NewFromState builds a model whose counties follow the same Zipf
// population profile used by the other substrates, with gravity-style
// commuting coupling.
func NewFromState(st synthpop.StateInfo, selfWeight float64) (*Model, error) {
	if st.Counties <= 0 {
		return nil, fmt.Errorf("metapop: state %s has no counties", st.Code)
	}
	if selfWeight <= 0 || selfWeight >= 1 {
		selfWeight = 0.85
	}
	m := &Model{State: st.Code, Counties: zipfCounties(st)}
	m.setGravity(selfWeight)
	return m, nil
}

// zipfCounties spreads a state's population over its counties by the Zipf
// profile, at least 100 people each.
func zipfCounties(st synthpop.StateInfo) []County {
	weights := make([]float64, st.Counties)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.8)
		total += weights[i]
	}
	counties := make([]County, st.Counties)
	for c := range counties {
		counties[c] = County{FIPS: int32(synthpop.CountyFIPS(st.FIPS, c)),
			Pop: math.Max(100, float64(st.Population)*weights[c]/total)}
	}
	return counties
}

// setGravity couples the counties by gravity: self weight s, the rest
// spread over the other counties in proportion to their populations. One
// county keeps all its contacts (s = 1).
func (m *Model) setGravity(selfWeight float64) {
	n := len(m.Counties)
	m.selfWeight, m.offPop = selfWeight, make([]float64, n)
	if n == 1 {
		m.selfWeight = 1
	}
	head, tail := 0.0, 0.0
	for c := range m.Counties {
		m.offPop[c] += head
		m.offPop[n-1-c] += tail
		head += m.Counties[c].Pop
		tail += m.Counties[n-1-c].Pop
	}
}

// Trajectory is the output of one run: per-county daily series.
type Trajectory struct {
	Days int
	// NewConfirmed[c][d] is county c's confirmed new cases on day d.
	NewConfirmed [][]float64
	// Infectious[c][d] is county c's infectious prevalence at day d.
	Infectious [][]float64
}

// Seed places initial infectious individuals in a county.
type Seed struct {
	CountyIndex int
	Infectious  float64
}

// newTrajectory allocates a run's output: each series is one slab cut
// into per-county rows.
func newTrajectory(n, days int) *Trajectory {
	t := &Trajectory{Days: days, NewConfirmed: make([][]float64, n), Infectious: make([][]float64, n)}
	confirmed, infectious := make([]float64, n*days), make([]float64, n*days)
	for c := 0; c < n; c++ {
		t.NewConfirmed[c] = confirmed[c*days : (c+1)*days : (c+1)*days]
		t.Infectious[c] = infectious[c*days : (c+1)*days : (c+1)*days]
	}
	return t
}

// betaOn is Beta scaled by every scenario window open on day d.
func betaOn(p Params, scenarios []Scenario, d int) float64 {
	beta := p.Beta
	for _, sc := range scenarios {
		if d >= sc.Start && d < sc.End {
			beta *= sc.Factor
		}
	}
	return beta
}

// suffixSums sets tail[c] = Σ_{j≥c} x[j] and tail[len(x)] = 0.
func suffixSums(x, tail []float64) {
	tail[len(x)] = 0
	for c := len(x) - 1; c >= 0; c-- {
		tail[c] = tail[c+1] + x[c]
	}
}

// Run integrates the coupled SEIR system for the given horizon with
// deterministic daily Euler steps. Scenario windows scale Beta. Counties
// update in place, in order (Gauss–Seidel): county c sees the counties
// before it at today's prevalence. Under gravity coupling a day is
// O(counties) — cheap, as the paper requires for in-loop calibration.
func (m *Model) Run(p Params, days int, seeds []Seed, scenarios []Scenario) (*Trajectory, error) {
	traj, _, err := m.integrate(p, days, seeds, scenarios, true)
	return traj, err
}

// StateCurve is Run's state cumulative confirmed series — each day summed
// over counties in county order — without building the per-county series.
func (m *Model) StateCurve(p Params, days int, seeds []Seed, scenarios []Scenario) ([]float64, error) {
	_, cum, err := m.integrate(p, days, seeds, scenarios, false)
	return cum, err
}

// integrate is the one Gauss–Seidel loop of Run and StateCurve: it fills
// the per-county trajectory when perCounty is set, else the state curve.
func (m *Model) integrate(p Params, days int, seeds []Seed, scenarios []Scenario, perCounty bool) (*Trajectory, []float64, error) {
	if days <= 0 {
		return nil, nil, fmt.Errorf("metapop: non-positive horizon %d", days)
	}
	if p.Beta < 0 || p.Sigma <= 0 || p.Sigma > 1 || p.Gamma <= 0 || p.Gamma > 1 || p.Detect < 0 || p.Detect > 1 {
		return nil, nil, fmt.Errorf("metapop: bad parameters %+v", p)
	}
	n := len(m.Counties)
	state := make([]float64, 4*n+1)
	s, e, i, tail := state[:n], state[n:2*n], state[2*n:3*n], state[3*n:]
	for c := range m.Counties {
		s[c] = m.Counties[c].Pop
	}
	if err := checkSeeds(seeds, n); err != nil {
		return nil, nil, err
	}
	for _, sd := range seeds {
		amount := math.Min(sd.Infectious, s[sd.CountyIndex])
		s[sd.CountyIndex] -= amount
		i[sd.CountyIndex] += amount
	}
	var traj *Trajectory
	var cum []float64
	if perCounty {
		traj = newTrajectory(n, days)
	} else {
		cum = make([]float64, days)
	}
	total := 0.0
	for d := 0; d < days; d++ {
		beta := betaOn(p, scenarios, d)
		suffixSums(i, tail)
		head := 0.0 // Σ_{j<c} I_j, already updated today
		daily := 0.0
		for c := 0; c < n; c++ {
			lambda := beta * m.pressure(c, i, head+tail[c+1])
			newExposed := lambda * s[c]
			if newExposed > s[c] {
				newExposed = s[c]
			}
			newInfectious := p.Sigma * e[c]
			newRecovered := p.Gamma * i[c]
			s[c] -= newExposed
			e[c] += newExposed - newInfectious
			i[c] += newInfectious - newRecovered
			head += i[c]
			confirmed := p.Detect * newInfectious
			daily += confirmed
			if traj != nil {
				traj.NewConfirmed[c][d] = confirmed
				traj.Infectious[c][d] = i[c]
			}
		}
		if cum != nil {
			total += daily
			cum[d] = total
		}
	}
	return traj, cum, nil
}

// RunStochastic integrates the same dynamics with binomial transition noise
// (chain-binomial), used when replicate variability matters. Unlike Run,
// every county sees the start-of-day prevalence (Jacobi).
func (m *Model) RunStochastic(p Params, days int, seeds []Seed, scenarios []Scenario, rng *stats.RNG) (*Trajectory, error) {
	if days <= 0 {
		return nil, fmt.Errorf("metapop: non-positive horizon %d", days)
	}
	if p.Beta < 0 || p.Sigma <= 0 || p.Sigma > 1 || p.Gamma <= 0 || p.Gamma > 1 {
		return nil, fmt.Errorf("metapop: bad parameters %+v", p)
	}
	n := len(m.Counties)
	if err := checkSeeds(seeds, n); err != nil {
		return nil, err
	}
	s := make([]int, n)
	e := make([]int, n)
	i := make([]int, n)
	for c := range m.Counties {
		s[c] = int(m.Counties[c].Pop)
	}
	for _, sd := range seeds {
		amt := min(int(sd.Infectious), s[sd.CountyIndex])
		s[sd.CountyIndex] -= amt
		i[sd.CountyIndex] += amt
	}
	traj := newTrajectory(n, days)
	snapshot := make([]float64, 2*n+1)
	infectious, tail := snapshot[:n], snapshot[n:]
	for d := 0; d < days; d++ {
		beta := betaOn(p, scenarios, d)
		for c := 0; c < n; c++ {
			infectious[c] = float64(i[c])
		}
		suffixSums(infectious, tail)
		head := 0.0 // Σ_{j<c} I_j at the start of the day
		for c := 0; c < n; c++ {
			pInf := 1 - math.Exp(-beta*m.pressure(c, infectious, head+tail[c+1]))
			head += infectious[c]
			newE := rng.Binomial(s[c], pInf)
			newI := rng.Binomial(e[c], 1-math.Exp(-p.Sigma))
			newR := rng.Binomial(i[c], 1-math.Exp(-p.Gamma))
			s[c] -= newE
			e[c] += newE - newI
			i[c] += newI - newR
			traj.NewConfirmed[c][d] = p.Detect * float64(newI)
			traj.Infectious[c][d] = float64(i[c])
		}
	}
	return traj, nil
}

// checkSeeds refuses a seed whose county is not one of the model's n.
func checkSeeds(seeds []Seed, n int) error {
	for _, sd := range seeds {
		if sd.CountyIndex < 0 || sd.CountyIndex >= n {
			return fmt.Errorf("metapop: seed county %d out of range", sd.CountyIndex)
		}
	}
	return nil
}

// pressure is county c's infectious pressure per unit Beta, given the
// prevalence vector and, under gravity coupling, the summed prevalence of
// the other counties.
func (m *Model) pressure(c int, infectious []float64, others float64) float64 {
	if m.links != nil {
		lambda := 0.0
		for _, l := range m.links[c] {
			lambda += l.W * infectious[l.To] / m.Counties[l.To].Pop
		}
		return lambda
	}
	lambda := m.selfWeight * infectious[c] / m.Counties[c].Pop
	if m.offPop[c] > 0 {
		lambda += (1 - m.selfWeight) * others / m.offPop[c]
	}
	return lambda
}
