package metapop

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/surveillance"
	"repro/internal/synthpop"
)

func testModel(t testing.TB) *Model {
	t.Helper()
	ri, err := synthpop.StateByCode("RI") // 5 counties: fast
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFromState(ri, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func defaultParams() Params {
	return Params{Beta: 0.5, Sigma: 1.0 / 3.0, Gamma: 1.0 / 5.0, Detect: 0.2}
}

func TestNewFromState(t *testing.T) {
	m := testModel(t)
	if len(m.Counties) != 5 {
		t.Fatalf("%d counties want 5", len(m.Counties))
	}
	// Coupling rows are stochastic.
	for i, row := range couplingMatrix(m) {
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative coupling at row %d", i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
		if row[i] != 0.85 {
			t.Fatalf("diagonal %v want 0.85", row[i])
		}
	}
	// County populations descending (Zipf).
	for c := 1; c < len(m.Counties); c++ {
		if m.Counties[c].Pop > m.Counties[c-1].Pop {
			t.Fatal("county populations not descending")
		}
	}
}

func TestRunEpidemicGrows(t *testing.T) {
	m := testModel(t)
	traj, err := m.Run(defaultParams(), 120, []Seed{{CountyIndex: 0, Infectious: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cum := traj.StateCumConfirmed()
	if cum[119] < 100 {
		t.Fatalf("epidemic did not grow: %v cumulative", cum[119])
	}
	for d := 1; d < len(cum); d++ {
		if cum[d] < cum[d-1]-1e-9 {
			t.Fatal("cumulative decreased")
		}
	}
}

func TestR0ControlsGrowth(t *testing.T) {
	m := testModel(t)
	seeds := []Seed{{CountyIndex: 0, Infectious: 10}}
	low := defaultParams()
	low.Beta = 0.1 // R0 = 0.5: dies out
	high := defaultParams()
	high.Beta = 0.6 // R0 = 3
	tl, err := m.Run(low, 150, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.Run(high, 150, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := tl.StateCumConfirmed()
	ch := th.StateCumConfirmed()
	if ch[149] < 10*cl[149] {
		t.Fatalf("R0=3 (%v) should vastly exceed R0=0.5 (%v)", ch[149], cl[149])
	}
	if low.R0() != 0.5 || math.Abs(high.R0()-3) > 1e-9 {
		t.Fatal("R0 computation wrong")
	}
}

func TestEpidemicSpreadsAcrossCounties(t *testing.T) {
	m := testModel(t)
	traj, err := m.Run(defaultParams(), 150, []Seed{{CountyIndex: 0, Infectious: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every county eventually sees cases through the coupling.
	for c := range m.Counties {
		cum := traj.countyCumConfirmed(c)
		if cum[149] <= 0 {
			t.Fatalf("county %d never infected", c)
		}
	}
	// Seeded county leads early.
	if traj.countyCumConfirmed(0)[30] <= traj.countyCumConfirmed(4)[30] {
		t.Fatal("seeded county does not lead")
	}
}

func TestScenarioReducesCases(t *testing.T) {
	m := testModel(t)
	seeds := []Seed{{CountyIndex: 0, Infectious: 10}}
	base, err := m.Run(defaultParams(), 150, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := m.Run(defaultParams(), 150, seeds,
		[]Scenario{{Name: "SD", Start: 20, End: 150, Factor: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if dist.StateCumConfirmed()[149] >= base.StateCumConfirmed()[149] {
		t.Fatal("social distancing scenario did not reduce cases")
	}
}

func TestPopulationConservedDeterministic(t *testing.T) {
	m := testModel(t)
	p := defaultParams()
	p.Detect = 1
	traj, err := m.Run(p, 300, []Seed{{CountyIndex: 0, Infectious: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Total confirmed (all infections at Detect=1) cannot exceed population.
	var totalPop float64
	for _, c := range m.Counties {
		totalPop += c.Pop
	}
	if final := traj.StateCumConfirmed()[299]; final > totalPop {
		t.Fatalf("confirmed %v exceeds population %v", final, totalPop)
	}
}

func TestRunValidation(t *testing.T) {
	m := testModel(t)
	if _, err := m.Run(defaultParams(), 0, nil, nil); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := defaultParams()
	bad.Gamma = 0
	if _, err := m.Run(bad, 10, nil, nil); err == nil {
		t.Error("zero gamma accepted")
	}
	if _, err := m.Run(defaultParams(), 10, []Seed{{CountyIndex: 99}}, nil); err == nil {
		t.Error("out-of-range seed accepted")
	}
	// σ and γ are daily probabilities: values above 1 would drive
	// compartments negative under the Euler step.
	badSigma := defaultParams()
	badSigma.Sigma = 1.5
	if _, err := m.Run(badSigma, 10, nil, nil); err == nil {
		t.Error("sigma > 1 accepted")
	}
	badGamma := defaultParams()
	badGamma.Gamma = 2
	if _, err := m.RunStochastic(badGamma, 10, nil, nil, stats.NewRNG(1)); err == nil {
		t.Error("gamma > 1 accepted in stochastic run")
	}
}

func TestRunStochasticMatchesDeterministicInMean(t *testing.T) {
	m := testModel(t)
	p := defaultParams()
	seeds := []Seed{{CountyIndex: 0, Infectious: 20}}
	det, err := m.Run(p, 100, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	var mean float64
	const reps = 10
	for i := 0; i < reps; i++ {
		st, err := m.RunStochastic(p, 100, seeds, nil, r)
		if err != nil {
			t.Fatal(err)
		}
		mean += st.StateCumConfirmed()[99] / reps
	}
	want := det.StateCumConfirmed()[99]
	if math.Abs(mean-want) > 0.5*want {
		t.Fatalf("stochastic mean %v far from deterministic %v", mean, want)
	}
}

func TestCalibrateRecoversBeta(t *testing.T) {
	m := testModel(t)
	trueParams := Params{Beta: 0.45, Sigma: 1.0 / 3.0, Gamma: 1.0 / 5.0, Detect: 0.25}
	seeds := []Seed{{CountyIndex: 0, Infectious: 10}}
	traj, err := m.Run(trueParams, 120, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a truth whose counties are the model's own output.
	truth := &surveillance.StateTruth{State: "RI", Days: 120}
	for c := range m.Counties {
		truth.Counties = append(truth.Counties, surveillance.CountySeries{
			FIPS: m.Counties[c].FIPS, Pop: int(m.Counties[c].Pop),
			Daily: traj.NewConfirmed[c],
		})
	}
	res, err := m.Calibrate(truth, CalibConfig{
		BetaLo: 0.2, BetaHi: 0.8, DetectLo: 0.05, DetectHi: 0.6,
		Sigma: trueParams.Sigma, Gamma: trueParams.Gamma,
		Days: 120, Seeds: seeds, Steps: 300, BurnIn: 300, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posterior) == 0 {
		t.Fatal("empty posterior")
	}
	if math.Abs(res.MAP.Beta-trueParams.Beta) > 0.08 {
		t.Fatalf("MAP beta %v want ≈%v", res.MAP.Beta, trueParams.Beta)
	}
	if res.AcceptRate <= 0 || res.AcceptRate >= 1 {
		t.Fatalf("degenerate acceptance rate %v", res.AcceptRate)
	}
}

func TestCalibrateValidation(t *testing.T) {
	m := testModel(t)
	truth := &surveillance.StateTruth{State: "RI", Days: 10}
	if _, err := m.Calibrate(truth, CalibConfig{BetaLo: 1, BetaHi: 0, DetectLo: 0, DetectHi: 1}); err == nil {
		t.Error("inverted beta range accepted")
	}
	if _, err := m.Calibrate(truth, CalibConfig{BetaLo: 0, BetaHi: 1, DetectLo: 1, DetectHi: 0}); err == nil {
		t.Error("inverted detect range accepted")
	}
}

func TestPredictBandOrdered(t *testing.T) {
	m := testModel(t)
	post := []Params{
		{Beta: 0.4, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2},
		{Beta: 0.45, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2},
		{Beta: 0.5, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2},
		{Beta: 0.55, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2},
	}
	lo, med, hi, err := m.PredictBand(post, 80, []Seed{{CountyIndex: 0, Infectious: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 80; d++ {
		if lo[d] > med[d] || med[d] > hi[d] {
			t.Fatalf("band not ordered at day %d", d)
		}
	}
	if _, _, _, err := m.PredictBand(nil, 10, nil, nil); err == nil {
		t.Fatal("empty posterior accepted")
	}
}

func TestLogLikelihoodPrefersTruth(t *testing.T) {
	m := testModel(t)
	p := defaultParams()
	seeds := []Seed{{CountyIndex: 0, Infectious: 10}}
	traj, _ := m.Run(p, 100, seeds, nil)
	truth := &surveillance.StateTruth{State: "RI", Days: 100}
	for c := range m.Counties {
		truth.Counties = append(truth.Counties, surveillance.CountySeries{
			FIPS: m.Counties[c].FIPS, Daily: traj.NewConfirmed[c],
		})
	}
	exact := LogLikelihood(truth, traj)
	off := p
	off.Beta = 0.8
	trajOff, _ := m.Run(off, 100, seeds, nil)
	if LogLikelihood(truth, trajOff) >= exact {
		t.Fatal("likelihood does not prefer generating parameters")
	}
}

// couplingMatrix materializes a gravity model's coupling the way the model
// once stored it: row c holds the self weight at c and
// (1−s)·N_j / Σ_{k≠c} N_k at j ≠ c.
func couplingMatrix(m *Model) [][]float64 {
	w := make([][]float64, len(m.Counties))
	for c := range w {
		w[c] = make([]float64, len(m.Counties))
		var offTotal float64
		for j := range m.Counties {
			if j != c {
				offTotal += m.Counties[j].Pop
			}
		}
		for j := range w[c] {
			if j == c {
				w[c][j] = m.selfWeight
			} else if offTotal > 0 {
				w[c][j] = (1 - m.selfWeight) * m.Counties[j].Pop / offTotal
			}
		}
	}
	return w
}

// denseLambda is Σ_j w[c][j]·I_j/N_j, the O(counties) sum per county.
func denseLambda(m *Model, w [][]float64, c int, infectious []float64) float64 {
	lambda := 0.0
	for j, wj := range w[c] {
		if wj == 0 {
			continue
		}
		lambda += wj * infectious[j] / m.Counties[j].Pop
	}
	return lambda
}

// denseRun is Run over the materialized matrix: O(days × counties²), in
// place (Gauss–Seidel).
func denseRun(m *Model, p Params, days int, seeds []Seed, scenarios []Scenario) *Trajectory {
	w := couplingMatrix(m)
	n := len(m.Counties)
	s, e, i := make([]float64, n), make([]float64, n), make([]float64, n)
	for c := range m.Counties {
		s[c] = m.Counties[c].Pop
	}
	for _, sd := range seeds {
		amount := math.Min(sd.Infectious, s[sd.CountyIndex])
		s[sd.CountyIndex] -= amount
		i[sd.CountyIndex] += amount
	}
	traj := newTrajectory(n, days)
	for d := 0; d < days; d++ {
		beta := betaOn(p, scenarios, d)
		for c := 0; c < n; c++ {
			newExposed := math.Min(beta*denseLambda(m, w, c, i)*s[c], s[c])
			newInfectious := p.Sigma * e[c]
			newRecovered := p.Gamma * i[c]
			s[c] -= newExposed
			e[c] += newExposed - newInfectious
			i[c] += newInfectious - newRecovered
			traj.NewConfirmed[c][d] = p.Detect * newInfectious
			traj.Infectious[c][d] = i[c]
		}
	}
	return traj
}

// denseRunStochastic is RunStochastic over the materialized matrix, from a
// start-of-day snapshot (Jacobi).
func denseRunStochastic(m *Model, p Params, days int, seeds []Seed, scenarios []Scenario, rng *stats.RNG) *Trajectory {
	w := couplingMatrix(m)
	n := len(m.Counties)
	s, e, i := make([]int, n), make([]int, n), make([]int, n)
	for c := range m.Counties {
		s[c] = int(m.Counties[c].Pop)
	}
	for _, sd := range seeds {
		amt := min(int(sd.Infectious), s[sd.CountyIndex])
		s[sd.CountyIndex] -= amt
		i[sd.CountyIndex] += amt
	}
	traj := newTrajectory(n, days)
	infectious := make([]float64, n)
	for d := 0; d < days; d++ {
		beta := betaOn(p, scenarios, d)
		for c := 0; c < n; c++ {
			infectious[c] = float64(i[c])
		}
		for c := 0; c < n; c++ {
			newE := rng.Binomial(s[c], 1-math.Exp(-beta*denseLambda(m, w, c, infectious)))
			newI := rng.Binomial(e[c], 1-math.Exp(-p.Sigma))
			newR := rng.Binomial(i[c], 1-math.Exp(-p.Gamma))
			s[c] -= newE
			e[c] += newE - newI
			i[c] += newI - newR
			traj.NewConfirmed[c][d] = p.Detect * float64(newI)
			traj.Infectious[c][d] = float64(i[c])
		}
	}
	return traj
}

// maxRelGap is the largest |a−b| / max(|a|, |b|) over both series of two
// trajectories, with 0/0 counting as no gap.
func maxRelGap(a, b *Trajectory) float64 {
	worst := 0.0
	for _, pair := range [][2][][]float64{{a.NewConfirmed, b.NewConfirmed}, {a.Infectious, b.Infectious}} {
		for c := range pair[0] {
			for d, x := range pair[0][c] {
				y := pair[1][c][d]
				if scale := math.Max(math.Abs(x), math.Abs(y)); scale > 0 {
					worst = math.Max(worst, math.Abs(x-y)/scale)
				}
			}
		}
	}
	return worst
}

// oracleScenarios are the fidelity rung's windows: school closure and
// stay-at-home from day 15, voluntary isolation over the horizon.
func oracleScenarios(days int) []Scenario {
	return []Scenario{
		{Name: "school-closure", Start: 15, End: days, Factor: 0.85},
		{Name: "stay-at-home", Start: 30, End: days, Factor: 0.75},
		{Name: "vhi", Start: 0, End: days, Factor: 0.875},
	}
}

// TestRunMatchesDenseOracle holds the O(counties) closed form to the dense
// O(counties²) sum on every region, at the populations the fidelity rung
// runs (full size and scaled down), with and without scenario windows.
func TestRunMatchesDenseOracle(t *testing.T) {
	scales := []int{1, 250, 2000}
	if testing.Short() {
		scales = []int{2000}
	}
	p := Params{Beta: 0.3, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.39}
	seeds := []Seed{{CountyIndex: 0, Infectious: 5}}
	for _, st := range synthpop.States {
		for _, scale := range scales {
			for _, days := range []int{60, 200} {
				for _, windows := range []bool{false, true} {
					scaled := st
					scaled.Population = max(st.Population/scale, st.Counties)
					m, err := NewFromState(scaled, 0)
					if err != nil {
						t.Fatal(err)
					}
					var scs []Scenario
					if windows {
						scs = oracleScenarios(days)
					}
					got, err := m.Run(p, days, seeds, scs)
					if err != nil {
						t.Fatal(err)
					}
					if gap := maxRelGap(got, denseRun(m, p, days, seeds, scs)); gap > 1e-12 {
						t.Errorf("%s 1:%d %dd windows=%v: relative gap %.3g from the dense oracle",
							st.Code, scale, days, windows, gap)
					}
				}
			}
		}
	}
}

// TestRunStochasticMatchesDenseTwin requires the same draws, hence the same
// trajectory, from the closed form and the dense sum at a fixed seed.
func TestRunStochasticMatchesDenseTwin(t *testing.T) {
	p := Params{Beta: 0.45, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2}
	seeds := []Seed{{CountyIndex: 0, Infectious: 20}}
	for _, code := range []string{"DC", "RI", "VA", "TX"} {
		st, err := synthpop.StateByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		st.Population /= 250
		m, err := NewFromState(st, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			got, err := m.RunStochastic(p, 120, seeds, oracleScenarios(120), stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			want := denseRunStochastic(m, p, 120, seeds, oracleScenarios(120), stats.NewRNG(seed))
			if gap := maxRelGap(got, want); gap != 0 {
				t.Errorf("%s seed %d: relative gap %.3g from the dense twin", code, seed, gap)
			}
		}
	}
}

// TestOneCountyIsSinglePatchSEIR: a one-county region keeps all its
// contacts, so its run is the single-patch SEIR with λ = β·I/N.
func TestOneCountyIsSinglePatchSEIR(t *testing.T) {
	dc, err := synthpop.StateByCode("DC")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFromState(dc, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Counties) != 1 {
		t.Fatalf("DC has %d counties, want 1", len(m.Counties))
	}
	p := defaultParams()
	const days = 150
	got, err := m.Run(p, days, []Seed{{CountyIndex: 0, Infectious: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pop := m.Counties[0].Pop
	s, e, i := pop-10, 0.0, 10.0
	for d := 0; d < days; d++ {
		newE := math.Min(p.Beta*i/pop*s, s)
		newI, newR := p.Sigma*e, p.Gamma*i
		s, e, i = s-newE, e+newE-newI, i+newI-newR
		if c := p.Detect * newI; math.Abs(got.NewConfirmed[0][d]-c) > 1e-12*c {
			t.Fatalf("day %d: confirmed %v, single-patch SEIR %v", d, got.NewConfirmed[0][d], c)
		}
	}
}

// FuzzClosedFormMatchesDense draws a region of random county populations
// and self weight and holds Run to the dense oracle and RunStochastic to
// its dense twin.
func FuzzClosedFormMatchesDense(f *testing.F) {
	f.Add(uint8(5), uint64(1), 0.85, uint64(7))
	f.Add(uint8(1), uint64(2), 0.5, uint64(1))
	f.Add(uint8(2), uint64(3), 0.01, uint64(2))
	f.Add(uint8(40), uint64(4), 0.99, uint64(3))
	f.Fuzz(func(t *testing.T, n uint8, popSeed uint64, self float64, rngSeed uint64) {
		if n == 0 || n > 64 || !(self > 0 && self < 1) {
			return
		}
		r := stats.NewRNG(popSeed)
		m := &Model{State: "FZ"}
		for c := 0; c < int(n); c++ {
			// 100 to 10⁶ people, log-uniform.
			m.Counties = append(m.Counties, County{FIPS: int32(c), Pop: 100 * math.Pow(10, 4*r.Float64())})
		}
		m.setGravity(self)
		p := Params{Beta: 0.2 + 0.6*r.Float64(), Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.3}
		seeds := []Seed{{CountyIndex: int(r.Uint64() % uint64(n)), Infectious: 10}}
		got, err := m.Run(p, 80, seeds, oracleScenarios(80))
		if err != nil {
			t.Fatal(err)
		}
		if gap := maxRelGap(got, denseRun(m, p, 80, seeds, oracleScenarios(80))); gap > 1e-12 {
			t.Fatalf("Run: relative gap %.3g from the dense oracle", gap)
		}
		sto, err := m.RunStochastic(p, 80, seeds, nil, stats.NewRNG(rngSeed))
		if err != nil {
			t.Fatal(err)
		}
		if gap := maxRelGap(sto, denseRunStochastic(m, p, 80, seeds, nil, stats.NewRNG(rngSeed))); gap != 0 {
			t.Fatalf("RunStochastic: relative gap %.3g from the dense twin", gap)
		}
	})
}

// vaScaled is Virginia (133 counties) at the fidelity rung's 1:2000.
func vaScaled(t testing.TB) *Model {
	t.Helper()
	va, err := synthpop.StateByCode("VA")
	if err != nil {
		t.Fatal(err)
	}
	va.Population /= 2000
	m, err := NewFromState(va, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunAllocs: a run allocates its state, one slab per output series and
// the row headers — a constant, not two rows per county.
func TestRunAllocs(t *testing.T) {
	m := vaScaled(t)
	p := defaultParams()
	seeds := []Seed{{CountyIndex: 0, Infectious: 5}}
	if a := testing.AllocsPerRun(20, func() { _, _ = m.Run(p, 60, seeds, nil) }); a > 6 {
		t.Errorf("Run: %v allocations per run, want ≤ 6", a)
	}
	rng := stats.NewRNG(1)
	if a := testing.AllocsPerRun(20, func() { _, _ = m.RunStochastic(p, 60, seeds, nil, rng) }); a > 9 {
		t.Errorf("RunStochastic: %v allocations per run, want ≤ 9", a)
	}
}

// BenchmarkRunVA is one fidelity-rung run: Virginia at 1:2000, 60 days.
func BenchmarkRunVA(b *testing.B) {
	m := vaScaled(b)
	p := Params{Beta: 0.3, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.39}
	seeds := []Seed{{CountyIndex: 0, Infectious: 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := m.Run(p, 60, seeds, oracleScenarios(60)); err != nil {
			b.Fatal(err)
		}
	}
}

// countyCumConfirmed returns one county's cumulative confirmed series.
func (t *Trajectory) countyCumConfirmed(c int) []float64 {
	out := make([]float64, t.Days)
	acc := 0.0
	for d := 0; d < t.Days; d++ {
		acc += t.NewConfirmed[c][d]
		out[d] = acc
	}
	return out
}
