package stats

import (
	"math"
	"sort"
	"testing"
)

func TestKSAcceptsCorrectDistribution(t *testing.T) {
	r := NewRNG(60)
	// Normal sampler against normal CDF.
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = r.Normal(3, 2)
	}
	if !ksTestNormal(sample, 3, 2, 0.01) {
		t.Fatal("KS rejected a correct normal sample")
	}
	// Uniform sampler against uniform CDF.
	u := make([]float64, 2000)
	for i := range u {
		u[i] = r.Float64()
	}
	if stat := ksStatistic(u, uniformCDF(0, 1)); stat > ksCritical(len(u), 0.01) {
		t.Fatalf("KS rejected uniform: stat %v", stat)
	}
	// Exponential sampler against exponential CDF.
	e := make([]float64, 2000)
	for i := range e {
		e[i] = r.Exp(0.5)
	}
	if stat := ksStatistic(e, expCDF(0.5)); stat > ksCritical(len(e), 0.01) {
		t.Fatalf("KS rejected exponential: stat %v", stat)
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	r := NewRNG(61)
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = r.Normal(3, 2)
	}
	if ksTestNormal(sample, 0, 2, 0.05) {
		t.Fatal("KS accepted a shifted normal")
	}
	if ksTestNormal(sample, 3, 6, 0.05) {
		t.Fatal("KS accepted a mis-scaled normal")
	}
}

func TestKSStatisticEdgeCases(t *testing.T) {
	if ksStatistic(nil, func(float64) float64 { return 0 }) != 0 {
		t.Fatal("empty sample should give 0")
	}
	if !math.IsInf(ksCritical(0, 0.05), 1) {
		t.Fatal("zero-n critical should be +Inf")
	}
	// Critical values decrease with n and increase with strictness.
	if ksCritical(100, 0.05) >= ksCritical(10, 0.05) {
		t.Fatal("critical not decreasing in n")
	}
	if ksCritical(100, 0.01) <= ksCritical(100, 0.10) {
		t.Fatal("critical ordering by alpha wrong")
	}
}

// The distribution implementations pass KS against their own CDFs at a
// strict level — a deeper check than moment tests.
func TestDistributionsPassKS(t *testing.T) {
	r := NewRNG(62)
	const n = 3000
	// Gamma(3, 2): use the CDF via regularized incomplete gamma — not in
	// the stdlib, so check via the exponential special case Gamma(1, θ).
	g := make([]float64, n)
	for i := range g {
		g[i] = r.Gamma(1, 2) // Exp(rate 1/2)
	}
	if stat := ksStatistic(g, expCDF(0.5)); stat > ksCritical(n, 0.01) {
		t.Fatalf("Gamma(1,2) failed KS vs Exp(0.5): %v", stat)
	}
	// TruncNormal with wide bounds ≈ normal.
	tn := make([]float64, n)
	for i := range tn {
		tn[i] = r.TruncNormal(0, 1, -100, 100)
	}
	if !ksTestNormal(tn, 0, 1, 0.01) {
		t.Fatal("wide TruncNormal failed KS vs normal")
	}
}

// ksStatistic returns the one-sample Kolmogorov–Smirnov statistic of the
// sample against the reference CDF.
func ksStatistic(sample []float64, cdf func(float64) float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := float64(len(s))
	max := 0.0
	for i, x := range s {
		f := cdf(x)
		// Compare against the empirical CDF just before and at x.
		dPlus := (float64(i)+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > max {
			max = dPlus
		}
		if dMinus > max {
			max = dMinus
		}
	}
	return max
}

// ksCritical returns the approximate critical value of the KS statistic at
// the given significance level (standard asymptotic formula; alpha in
// {0.10, 0.05, 0.01} uses the tabulated coefficients).
func ksCritical(n int, alpha float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	c := 1.358 // alpha = 0.05
	switch {
	case alpha >= 0.10:
		c = 1.224
	case alpha >= 0.05:
		c = 1.358
	default:
		c = 1.628
	}
	return c / math.Sqrt(float64(n))
}

// ksTestNormal reports whether the sample is consistent with
// Normal(mean, sd) at the given significance level.
func ksTestNormal(sample []float64, mean, sd, alpha float64) bool {
	stat := ksStatistic(sample, func(x float64) float64 {
		return normCDF((x - mean) / sd)
	})
	return stat <= ksCritical(len(sample), alpha)
}

// expCDF returns the CDF of an exponential with the given rate.
func expCDF(rate float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-rate*x)
	}
}

// uniformCDF returns the CDF of Uniform(lo, hi).
func uniformCDF(lo, hi float64) func(float64) float64 {
	return func(x float64) float64 {
		switch {
		case x <= lo:
			return 0
		case x >= hi:
			return 1
		default:
			return (x - lo) / (hi - lo)
		}
	}
}
