package gp

import (
	"math"
	"testing"

	"repro/internal/lhs"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// designFor builds an n-point LHS design in [0,1]^d.
func designFor(t testing.TB, seed uint64, n, d int) [][]float64 {
	t.Helper()
	r := stats.NewRNG(seed)
	ranges := make([]lhs.Range, d)
	for i := range ranges {
		ranges[i] = lhs.Range{Lo: 0, Hi: 1}
	}
	x, err := lhs.Sample(r, n, ranges)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("empty design accepted")
	}
	if _, err := Fit([][]float64{{0.5}}, []float64{1, 2}); err == nil {
		t.Error("mismatched outputs accepted")
	}
	if _, err := Fit([][]float64{{2.0}}, []float64{1}); err == nil {
		t.Error("out-of-cube design accepted")
	}
	if _, err := Fit([][]float64{{0.1}, {0.2, 0.3}}, []float64{1, 2}); err == nil {
		t.Error("ragged design accepted")
	}
}

func TestGPInterpolatesSmoothFunction(t *testing.T) {
	x := designFor(t, 1, 40, 1)
	f := func(u float64) float64 { return math.Sin(4 * u) }
	w := make([]float64, len(x))
	for i := range x {
		w[i] = f(x[i][0])
	}
	g, err := Fit(x, w)
	if err != nil {
		t.Fatal(err)
	}
	// Check prediction error at held-out points.
	for _, u := range []float64{0.13, 0.37, 0.51, 0.77, 0.93} {
		mean, variance := g.Predict([]float64{u})
		if math.Abs(mean-f(u)) > 0.05 {
			t.Errorf("at %v: predicted %v want %v", u, mean, f(u))
		}
		if variance < 0 {
			t.Errorf("negative variance at %v", u)
		}
	}
}

func TestGPPredictsTrainingPoints(t *testing.T) {
	x := designFor(t, 2, 25, 2)
	w := make([]float64, len(x))
	for i := range x {
		w[i] = x[i][0]*2 - x[i][1]
	}
	g, err := Fit(x, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mean, _ := g.Predict(x[i])
		if math.Abs(mean-w[i]) > 0.1 {
			t.Fatalf("training point %d: %v want %v", i, mean, w[i])
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	// Design clustered in [0, 0.5]: variance at 0.95 must exceed at 0.25.
	x := [][]float64{{0.05}, {0.1}, {0.2}, {0.3}, {0.4}, {0.5}}
	w := []float64{0, 0.1, 0.3, 0.2, 0.5, 0.4}
	g, err := Fit(x, w)
	if err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict([]float64{0.25})
	_, vFar := g.Predict([]float64{0.95})
	if vFar <= vNear {
		t.Fatalf("variance near %v, far %v — no growth away from data", vNear, vFar)
	}
}

func TestGPHandlesConstantOutput(t *testing.T) {
	x := designFor(t, 3, 10, 1)
	w := make([]float64, len(x)) // all zeros
	g, err := Fit(x, w)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := g.Predict([]float64{0.5})
	if math.Abs(mean) > 1e-6 {
		t.Fatalf("constant-zero GP predicts %v", mean)
	}
}

func TestCorrProperties(t *testing.T) {
	rho := []float64{0.5, 0.8}
	lr := logRhoOf(rho)
	a := []float64{0.3, 0.7}
	if c := corr(a, a, lr); c != 1 {
		t.Fatalf("self correlation %v want 1", c)
	}
	b := []float64{0.9, 0.1}
	cab := corr(a, b, lr)
	if cab <= 0 || cab >= 1 {
		t.Fatalf("cross correlation %v outside (0,1)", cab)
	}
	if corr(b, a, lr) != cab {
		t.Fatal("correlation not symmetric")
	}
	// Smaller rho → faster decay.
	if corr(a, b, logRhoOf([]float64{0.1, 0.1})) >= cab {
		t.Fatal("smaller rho should decay faster")
	}
	// The log-exp fast path agrees with the paper's ∏ ρ^{4d²} form.
	direct := 1.0
	for k := range a {
		d := a[k] - b[k]
		direct *= math.Pow(rho[k], 4*d*d)
	}
	if math.Abs(cab-direct) > 1e-12*direct {
		t.Fatalf("fast-path corr %v vs direct %v", cab, direct)
	}
}

func TestScalerRoundTrip(t *testing.T) {
	s, err := NewScaler([]float64{1, -5}, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	theta := []float64{2.2, 0}
	u := s.ToUnit(theta)
	if math.Abs(u[0]-0.6) > 1e-12 || math.Abs(u[1]-0.5) > 1e-12 {
		t.Fatalf("unit %v", u)
	}
	back := s.FromUnit(u)
	for k := range back {
		if math.Abs(back[k]-theta[k]) > 1e-12 {
			t.Fatalf("roundtrip %v want %v", back, theta)
		}
	}
}

func TestScalerValidation(t *testing.T) {
	if _, err := NewScaler([]float64{0}, []float64{1, 2}); err == nil {
		t.Error("mismatched bounds accepted")
	}
	if _, err := NewScaler([]float64{2}, []float64{1}); err == nil {
		t.Error("inverted bounds accepted")
	}
	s, _ := NewScaler([]float64{1}, []float64{1})
	if u := s.ToUnit([]float64{1}); u[0] != 0 {
		t.Error("degenerate range should map to 0")
	}
}

// Multi-output emulation of a family of logistic curves, the shape the
// calibration workflow actually emulates.
func TestFitMultiEmulatesCurveFamily(t *testing.T) {
	const n, T = 60, 50
	x := designFor(t, 4, n, 2)
	y := linalg.NewMatrix(n, T)
	curve := func(theta []float64, d int) float64 {
		growth := 0.1 + 0.3*theta[0]
		size := 100 + 900*theta[1]
		return size / (1 + math.Exp(-growth*(float64(d)-25)))
	}
	for i := 0; i < n; i++ {
		for d := 0; d < T; d++ {
			y.Set(i, d, curve(x[i], d))
		}
	}
	m, err := FitMulti(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GPs) != 5 {
		t.Fatalf("%d basis GPs want 5", len(m.GPs))
	}
	if m.Explained < 0.99 {
		t.Fatalf("PCA explained %v of a 2-parameter family", m.Explained)
	}
	// Held-out accuracy.
	test := [][]float64{{0.25, 0.5}, {0.6, 0.2}, {0.85, 0.85}}
	for _, theta := range test {
		mean, variance := m.Predict(theta)
		for d := 0; d < T; d += 7 {
			want := curve(theta, d)
			tol := 0.05*want + 10
			if math.Abs(mean[d]-want) > tol {
				t.Errorf("theta %v day %d: %v want %v", theta, d, mean[d], want)
			}
			if variance[d] < 0 {
				t.Errorf("negative variance at day %d", d)
			}
		}
	}
}

func TestFitMultiValidation(t *testing.T) {
	if _, err := FitMulti(nil, linalg.NewMatrix(0, 5), 3); err == nil {
		t.Error("empty design accepted")
	}
	x := designFor(t, 5, 10, 1)
	if _, err := FitMulti(x, linalg.NewMatrix(3, 5), 2); err == nil {
		t.Error("mismatched rows accepted")
	}
}

func TestPredictWeightsShape(t *testing.T) {
	const n, T = 30, 20
	x := designFor(t, 6, n, 1)
	y := linalg.NewMatrix(n, T)
	for i := 0; i < n; i++ {
		for d := 0; d < T; d++ {
			y.Set(i, d, x[i][0]*float64(d))
		}
	}
	m, err := FitMulti(x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	wm, wv := m.predictWeights([]float64{0.5})
	if len(wm) != len(m.GPs) || len(wv) != len(m.GPs) {
		t.Fatal("weight prediction shape wrong")
	}
	for _, v := range wv {
		if v < 0 {
			t.Fatal("negative weight variance")
		}
	}
}

func TestEmulatorUncertaintyCoversTruth(t *testing.T) {
	// At held-out points, |truth − mean| should rarely exceed 3 sd.
	const n, T = 50, 40
	x := designFor(t, 7, n, 2)
	y := linalg.NewMatrix(n, T)
	f := func(theta []float64, d int) float64 {
		return 50*theta[0]*math.Sin(float64(d)/8) + 100*theta[1]
	}
	for i := 0; i < n; i++ {
		for d := 0; d < T; d++ {
			y.Set(i, d, f(x[i], d))
		}
	}
	m, err := FitMulti(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(8)
	violations, checks := 0, 0
	for trial := 0; trial < 20; trial++ {
		theta := []float64{r.Float64(), r.Float64()}
		mean, variance := m.Predict(theta)
		for d := 0; d < T; d += 5 {
			sd := math.Sqrt(variance[d]) + 1e-9
			if math.Abs(mean[d]-f(theta, d)) > 4*sd+1 {
				violations++
			}
			checks++
		}
	}
	if violations > checks/10 {
		t.Fatalf("emulator badly overconfident: %d/%d violations", violations, checks)
	}
}

// predictWeights returns the basis-weight means and variances at a
// unit-cube input,.
func (m *MultiGP) predictWeights(theta []float64) (mean, variance []float64) {
	pEta := len(m.GPs)
	mean = make([]float64, pEta)
	variance = make([]float64, pEta)
	for k, g := range m.GPs {
		mean[k], variance[k] = g.Predict(theta)
	}
	return mean, variance
}
