package calib

import (
	"context"
	"math"
	"testing"

	"repro/internal/lhs"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// synthetic simulator: logistic cumulative curve driven by two parameters
// (growth ~ TAU, size ~ SYMP), the shape the real workflow calibrates.
func simCurve(theta []float64, T int) []float64 {
	growth := theta[0]
	size := theta[1]
	out := make([]float64, T)
	for d := 0; d < T; d++ {
		out[d] = size / (1 + math.Exp(-growth*(float64(d)-float64(T)/2)))
	}
	return out
}

func buildDesign(t testing.TB, seed uint64, n, T int) *Design {
	t.Helper()
	r := stats.NewRNG(seed)
	ranges := []lhs.Range{
		{Name: "TAU", Lo: 0.1, Hi: 0.5},
		{Name: "SYMP", Lo: 500, Hi: 5000},
	}
	d, err := NewLHSDesign(r, n, ranges)
	if err != nil {
		t.Fatal(err)
	}
	d.Outputs = linalg.NewMatrix(n, T)
	for i, th := range d.Thetas {
		curve := simCurve(th, T)
		for j, v := range curve {
			d.Outputs.Set(i, j, v)
		}
	}
	return d
}

func TestDiscrepancyBasisShape(t *testing.T) {
	v := DiscrepancyBasis(70, 15, 10)
	if v.Rows != 70 {
		t.Fatalf("rows %d want 70", v.Rows)
	}
	// 70-day horizon, 10-day spacing → 8 kernels (paper: pδ = 7 for its
	// horizon). Kernels peak at their centers.
	if v.Cols != 8 {
		t.Fatalf("cols %d want 8", v.Cols)
	}
	for j := 0; j < v.Cols; j++ {
		center := j * 10
		if center >= 70 {
			continue
		}
		if v.At(center, j) < 0.99 {
			t.Fatalf("kernel %d does not peak at its center: %v", j, v.At(center, j))
		}
	}
	// Defaults applied for non-positive arguments.
	d := DiscrepancyBasis(30, 0, 0)
	if d.Cols != 4 {
		t.Fatalf("default spacing cols %d want 4", d.Cols)
	}
}

func TestFitValidation(t *testing.T) {
	d := buildDesign(t, 1, 20, 40)
	if _, err := Fit(d, make([]float64, 10), Config{}); err == nil {
		t.Error("mismatched observation length accepted")
	}
	d2 := &Design{Ranges: d.Ranges, Thetas: d.Thetas}
	if _, err := Fit(d2, make([]float64, 40), Config{}); err == nil {
		t.Error("missing outputs accepted")
	}
}

func TestCalibrationRecoversParameters(t *testing.T) {
	const T = 60
	d := buildDesign(t, 2, 80, T)
	truth := []float64{0.3, 2500}
	obs := simCurve(truth, T)
	// Small observation noise.
	r := stats.NewRNG(3)
	for i := range obs {
		obs[i] += r.Norm() * 10
	}
	c, err := Fit(d, obs, Config{NumBasis: 5})
	if err != nil {
		t.Fatal(err)
	}
	post, err := c.SampleCtx(context.Background(), Config{Steps: 1500, BurnIn: 800, Seed: 4}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Thetas) == 0 {
		t.Fatal("empty posterior")
	}
	// Posterior means near truth.
	var mTau, mSymp float64
	for _, th := range post.Thetas {
		mTau += th[0]
		mSymp += th[1]
	}
	mTau /= float64(len(post.Thetas))
	mSymp /= float64(len(post.Thetas))
	if math.Abs(mTau-truth[0]) > 0.08 {
		t.Errorf("posterior TAU %v want ≈%v", mTau, truth[0])
	}
	if math.Abs(mSymp-truth[1]) > 600 {
		t.Errorf("posterior SYMP %v want ≈%v", mSymp, truth[1])
	}
	// MAP also close.
	if math.Abs(post.MAPTheta[0]-truth[0]) > 0.1 {
		t.Errorf("MAP TAU %v", post.MAPTheta[0])
	}
}

// The Figure 15 property: the posterior is tighter than the prior.
func TestPosteriorTighterThanPrior(t *testing.T) {
	const T = 60
	d := buildDesign(t, 5, 80, T)
	obs := simCurve([]float64{0.3, 2500}, T)
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	post, err := c.SampleCtx(context.Background(), Config{Steps: 1200, BurnIn: 600, Seed: 6}, 100)
	if err != nil {
		t.Fatal(err)
	}
	priorTau := make([]float64, len(d.Thetas))
	for i, th := range d.Thetas {
		priorTau[i] = th[0]
	}
	postTau := make([]float64, len(post.Thetas))
	for i, th := range post.Thetas {
		postTau[i] = th[0]
	}
	if stats.StdDev(postTau) >= stats.StdDev(priorTau) {
		t.Fatalf("posterior TAU sd %v not tighter than prior %v",
			stats.StdDev(postTau), stats.StdDev(priorTau))
	}
}

// The Figure 16 property: the emulator band at a good θ covers the data.
func TestEmulatorBandCoversTruth(t *testing.T) {
	const T = 60
	d := buildDesign(t, 7, 80, T)
	truth := []float64{0.3, 2500}
	obs := simCurve(truth, T)
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mean, lo, hi := c.EmulatorBand(truth)
	if len(mean) != T || len(lo) != T || len(hi) != T {
		t.Fatal("band shape wrong")
	}
	for i := range mean {
		if lo[i] > mean[i] || mean[i] > hi[i] {
			t.Fatalf("band inverted at %d", i)
		}
	}
	if cov := c.CoverageFraction(truth); cov < 0.8 {
		t.Fatalf("coverage %v at the true parameters", cov)
	}
	// A far-off θ should fit worse than the truth.
	bad := []float64{0.12, 600}
	if c.CoverageFraction(bad) >= c.CoverageFraction(truth) {
		t.Fatal("coverage does not discriminate good from bad parameters")
	}
}

func TestSampleHyperparameterRanges(t *testing.T) {
	const T = 40
	d := buildDesign(t, 8, 50, T)
	obs := simCurve([]float64{0.25, 2000}, T)
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	post, err := c.SampleCtx(context.Background(), Config{Steps: 400, BurnIn: 200, Seed: 9}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range post.SigmaDelta {
		if post.SigmaDelta[i] <= 0 || post.SigmaEps[i] <= 0 {
			t.Fatal("non-positive scale sampled")
		}
	}
	if post.AcceptRate <= 0 || post.AcceptRate >= 1 {
		t.Fatalf("acceptance rate %v", post.AcceptRate)
	}
	// Thetas stay inside the prior ranges.
	for _, th := range post.Thetas {
		if th[0] < 0.1 || th[0] > 0.5 || th[1] < 500 || th[1] > 5000 {
			t.Fatalf("posterior sample escaped prior box: %v", th)
		}
	}
}

// The predictive band (η + δ + ε) is wider than the emulator-only band and
// covers more of the data.
func TestPredictiveBandWiderThanEmulator(t *testing.T) {
	const T = 50
	d := buildDesign(t, 9, 60, T)
	truth := []float64{0.3, 2500}
	obs := simCurve(truth, T)
	// Add systematic discrepancy the emulator can't express.
	for i := range obs {
		obs[i] += 100 * math.Sin(float64(i)/8)
	}
	c, err := Fit(d, obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, emLo, emHi := c.EmulatorBand(truth)
	_, pLo, pHi := c.PredictiveBand(truth, 80, 20)
	for i := 0; i < T; i++ {
		if pHi[i]-pLo[i] < emHi[i]-emLo[i] {
			t.Fatalf("predictive band narrower than emulator band at %d", i)
		}
	}
	emCov := c.CoverageFraction(truth)
	pCov := c.PredictiveCoverage(truth, 80, 20)
	if pCov < emCov {
		t.Fatalf("predictive coverage %v below emulator coverage %v", pCov, emCov)
	}
	if pCov < 0.9 {
		t.Fatalf("predictive coverage %v with generous scales", pCov)
	}
}

func TestLog1pRoundTrip(t *testing.T) {
	xs := []float64{0, 1, 10, 1000}
	back := Expm1(Log1p(xs))
	for i := range xs {
		if math.Abs(back[i]-xs[i]) > 1e-9*(1+xs[i]) {
			t.Fatalf("roundtrip %v want %v", back[i], xs[i])
		}
	}
}

func TestNewLHSDesignErrors(t *testing.T) {
	r := stats.NewRNG(10)
	if _, err := NewLHSDesign(r, 0, []lhs.Range{{Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("zero-point design accepted")
	}
}
