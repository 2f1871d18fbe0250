package stats

import (
	"math"
	"testing"
)

// Tests for Dist wrappers whose behaviour otherwise only flows through
// other packages.

func TestNormalDistSample(t *testing.T) {
	r := NewRNG(200)
	n := Normal{Mean: 10, SD: 2}
	const k = 50000
	var sum float64
	for i := 0; i < k; i++ {
		sum += n.Sample(r)
	}
	if m := sum / k; math.Abs(m-10) > 0.05 {
		t.Fatalf("normal dist mean %v", m)
	}
}

func TestGammaDistSampleWrapper(t *testing.T) {
	r := NewRNG(201)
	g := Gamma{Shape: 2, Rate: 4} // mean 0.5
	const k = 50000
	var sum float64
	for i := 0; i < k; i++ {
		x := g.Sample(r)
		if x <= 0 {
			t.Fatal("non-positive gamma sample")
		}
		sum += x
	}
	if m := sum / k; math.Abs(m-0.5) > 0.02 {
		t.Fatalf("gamma dist mean %v", m)
	}
}

func TestTruncNormalDistWrapper(t *testing.T) {
	r := NewRNG(202)
	d := TruncNormal{Mean: 5, SD: 2, Lo: 3, Hi: 7}
	for i := 0; i < 5000; i++ {
		x := d.Sample(r)
		if x < 3 || x > 7 {
			t.Fatalf("trunc sample %v out of bounds", x)
		}
	}
	if !math.IsInf(d.LogPDF(2), -1) || !math.IsInf(d.LogPDF(8), -1) {
		t.Fatal("logpdf outside bounds should be -Inf")
	}
	if d.LogPDF(5) <= d.LogPDF(6.5) {
		t.Fatal("logpdf should peak at the mean")
	}
	if (TruncNormal{Mean: 0, SD: 0, Lo: -1, Hi: 1}).LogPDF(0) != math.Inf(-1) {
		t.Fatal("zero-sd logpdf should be -Inf")
	}
}

func TestNormalLogPDFBadSD(t *testing.T) {
	if !math.IsInf((Normal{Mean: 0, SD: 0}).LogPDF(1), -1) {
		t.Fatal("zero-sd normal should be -Inf")
	}
}

func TestLogNormalLogPDF(t *testing.T) {
	l := LogNormal{Mu: 0, Sigma: 1}
	if !math.IsInf(l.LogPDF(0), -1) || !math.IsInf(l.LogPDF(-1), -1) {
		t.Fatal("lognormal logpdf at non-positive x should be -Inf")
	}
	// Density integrates to ≈1 on (0, 20).
	sum := 0.0
	const steps = 200000
	for i := 1; i < steps; i++ {
		x := float64(i) * 20 / steps
		sum += math.Exp(l.LogPDF(x)) * 20 / steps
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("lognormal density integrates to %v", sum)
	}
}

func TestStdDevWrapper(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev %v want %v", got, want)
	}
}

func TestMedianWrapper(t *testing.T) {
	if Median([]float64{5, 1, 3}) != 3 {
		t.Fatal("median wrong")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(203)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatal("shuffle duplicated an element")
		}
		seen[v] = true
	}
	// Shuffling actually permutes (probability of identity is 1/8!).
	identity := true
	for i, v := range xs {
		if v != i {
			identity = false
		}
	}
	if identity {
		t.Log("shuffle returned identity (possible but unlikely)")
	}
}

func TestUniformCDFEdges(t *testing.T) {
	cdf := uniformCDF(2, 4)
	if cdf(1) != 0 || cdf(5) != 1 || cdf(3) != 0.5 {
		t.Fatal("uniform cdf edges wrong")
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestGammaPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0, 1) did not panic")
		}
	}()
	NewRNG(1).Gamma(0, 1)
}
