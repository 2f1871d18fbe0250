package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestUniformSampleAndPDF(t *testing.T) {
	r := NewRNG(100)
	u := Uniform{Lo: 2, Hi: 5}
	for i := 0; i < 10000; i++ {
		x := u.Sample(r)
		if x < 2 || x > 5 {
			t.Fatalf("uniform sample %v out of [2,5]", x)
		}
	}
	if got := u.LogPDF(3); math.Abs(got-math.Log(1.0/3.0)) > 1e-12 {
		t.Errorf("uniform logpdf %v", got)
	}
	if !math.IsInf(u.LogPDF(1), -1) {
		t.Error("uniform logpdf outside support should be -Inf")
	}
}

func TestNormalLogPDF(t *testing.T) {
	n := Normal{Mean: 0, SD: 1}
	want := -0.5 * math.Log(2*math.Pi)
	if got := n.LogPDF(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("normal logpdf at 0: %v want %v", got, want)
	}
}

func TestGammaDistMean(t *testing.T) {
	r := NewRNG(101)
	g := Gamma{Shape: 4, Rate: 2}
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Sample(r)
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Fatalf("gamma(4,2) mean %v want 2", mean)
	}
	if !math.IsInf(g.LogPDF(-1), -1) {
		t.Error("gamma logpdf of negative should be -Inf")
	}
}

func TestBetaDistLogPDFIntegratesToOne(t *testing.T) {
	b := Beta{A: 2, B: 3}
	// Trapezoid integration of the density over (0,1).
	const n = 10000
	sum := 0.0
	for i := 1; i < n; i++ {
		x := float64(i) / n
		sum += math.Exp(b.LogPDF(x)) / n
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("beta density integrates to %v", sum)
	}
}

func TestDiscreteDist(t *testing.T) {
	d, err := NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(102)
	counts := map[float64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	if got := float64(counts[3]) / n; math.Abs(got-0.5) > 0.02 {
		t.Fatalf("P(3) = %v want 0.5", got)
	}
	if !math.IsInf(d.LogPDF(9), -1) {
		t.Error("discrete logpdf off-support should be -Inf")
	}
}

func TestDiscreteNormalizes(t *testing.T) {
	d, err := NewDiscrete([]float64{0, 1}, []float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Probs[0]-0.25) > 1e-12 || math.Abs(d.Probs[1]-0.75) > 1e-12 {
		t.Fatalf("normalization wrong: %v", d.Probs)
	}
}

func TestDiscreteErrors(t *testing.T) {
	if _, err := NewDiscrete([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewDiscrete(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{0}); err == nil {
		t.Error("zero total accepted")
	}
}

func TestFixedDist(t *testing.T) {
	f := Fixed{V: 4}
	r := NewRNG(103)
	for i := 0; i < 10; i++ {
		if f.Sample(r) != 4 {
			t.Fatal("fixed dist varied")
		}
	}
	if f.LogPDF(4) != 0 || !math.IsInf(f.LogPDF(5), -1) {
		t.Error("fixed logpdf wrong")
	}
}

func TestNormCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.25, 0.5, 0.75, 0.975, 0.999} {
		x := normQuantile(p)
		back := normCDF(x)
		if math.Abs(back-p) > 1e-7 {
			t.Errorf("roundtrip p=%v got %v", p, back)
		}
	}
	if normQuantile(0.5) != 0 && math.Abs(normQuantile(0.5)) > 1e-9 {
		t.Errorf("median quantile %v", normQuantile(0.5))
	}
}

func TestNormQuantileTails(t *testing.T) {
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("quantile at 0/1 should be infinite")
	}
	if q := normQuantile(0.975); math.Abs(q-1.959964) > 1e-4 {
		t.Errorf("97.5%% quantile %v want 1.95996", q)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("variance %v want %v", v, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs mishandled")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v want 3", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("min %v want 1", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("max %v want 5", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 %v want 2", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	r := NewRNG(104)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64()
	}
	qs := []float64{0.05, 0.5, 0.95}
	multi := Quantiles(xs, qs...)
	for i, q := range qs {
		if single := Quantile(xs, q); single != multi[i] {
			t.Errorf("q=%v: %v vs %v", q, single, multi[i])
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if c := Correlation(xs, xs); math.Abs(c-1) > 1e-12 {
		t.Errorf("self correlation %v", c)
	}
	neg := []float64{4, 3, 2, 1}
	if c := Correlation(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Errorf("negative correlation %v", c)
	}
	if c := Correlation(xs, []float64{2, 2, 2, 2}); c != 0 {
		t.Errorf("constant series correlation %v", c)
	}
}

func TestECDFMonotone(t *testing.T) {
	r := NewRNG(105)
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = r.Norm()
	}
	at := make([]float64, 41)
	for i := range at {
		at[i] = -4 + float64(i)*0.2
	}
	cdf := ecdf(sample, at)
	if !sort.Float64sAreSorted(cdf) {
		t.Fatal("ECDF not monotone")
	}
	if cdf[0] != 0 && cdf[0] > 0.05 {
		t.Errorf("left tail %v", cdf[0])
	}
	if cdf[len(cdf)-1] != 1 {
		t.Errorf("right tail %v want 1", cdf[len(cdf)-1])
	}
}

func TestQuantilePropertyBetweenMinMax(t *testing.T) {
	r := NewRNG(106)
	err := quick.Check(func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := rr.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Norm()
		}
		q := r.Float64()
		v := Quantile(xs, q)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := NewRNG(107)
	l := LogNormal{Mu: 0, Sigma: 0.5}
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += l.Sample(r)
	}
	want := math.Exp(0.125) // exp(mu + sigma^2/2)
	if mean := sum / n; math.Abs(mean-want) > 0.02 {
		t.Fatalf("lognormal mean %v want %v", mean, want)
	}
}

// normCDF returns the standard normal CDF at x.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// normQuantile returns the standard normal quantile (Acklam's algorithm,
// accurate to ~1e-9, ample for plotting bands).
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the rational approximations.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var q, r float64
	switch {
	case p < plow:
		q = math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q = p - 0.5
		r = q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// ecdf returns the empirical CDF evaluated at each of the given points.
func ecdf(sample []float64, at []float64) []float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	out := make([]float64, len(at))
	for i, x := range at {
		out[i] = float64(sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1)))) / float64(len(s))
	}
	return out
}
