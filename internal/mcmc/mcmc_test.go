package mcmc

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// Gaussian target centered at (1, -0.5).
func gaussTarget(theta []float64) float64 {
	d0 := theta[0] - 1
	d1 := theta[1] + 0.5
	return -0.5 * (d0*d0/0.04 + d1*d1/0.01)
}

func TestMetropolisRecoversGaussian(t *testing.T) {
	res, err := Metropolis(gaussTarget, Config{
		Init: []float64{0, 0},
		Lo:   []float64{-3, -3}, Hi: []float64{3, 3},
		Steps: 4000, BurnIn: 1000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m0 := columnMean(res.Samples, 0)
	m1 := columnMean(res.Samples, 1)
	if math.Abs(m0-1) > 0.08 {
		t.Errorf("mean[0] = %v want 1", m0)
	}
	if math.Abs(m1+0.5) > 0.05 {
		t.Errorf("mean[1] = %v want -0.5", m1)
	}
	// Posterior spread roughly matches the target sd (0.2): the central
	// 95% interval should span ≈ 4 sd.
	qlo := columnQuantile(res.Samples, 0, 0.025)
	qhi := columnQuantile(res.Samples, 0, 0.975)
	span := qhi - qlo
	if span < 0.5 || span > 1.3 {
		t.Errorf("95%% span %v want ≈0.78", span)
	}
}

func TestMetropolisValidation(t *testing.T) {
	if _, err := Metropolis(gaussTarget, Config{}); err == nil {
		t.Error("empty init accepted")
	}
	if _, err := Metropolis(gaussTarget, Config{Init: []float64{0}, Lo: []float64{0, 0}, Hi: []float64{1}}); err == nil {
		t.Error("mismatched bounds accepted")
	}
	if _, err := Metropolis(gaussTarget, Config{Init: []float64{5}, Lo: []float64{0}, Hi: []float64{1}, Steps: 10}); err == nil {
		t.Error("init outside box accepted")
	}
	if _, err := Metropolis(gaussTarget, Config{Init: []float64{0.5}, Lo: []float64{0}, Hi: []float64{1}, Steps: 0}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := Metropolis(gaussTarget, Config{Init: []float64{0.5}, Lo: []float64{1}, Hi: []float64{0}, Steps: 5}); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestSamplesStayInBox(t *testing.T) {
	res, err := Metropolis(gaussTarget, Config{
		Init: []float64{0.5, 0.5},
		Lo:   []float64{0, 0}, Hi: []float64{1, 1},
		Steps: 2000, BurnIn: 200, Seed: 2, StepFrac: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		for k, v := range s {
			if v < 0 || v > 1 {
				t.Fatalf("sample dim %d escaped box: %v", k, v)
			}
		}
	}
}

func TestBestTracksHighestPosterior(t *testing.T) {
	res, err := Metropolis(gaussTarget, Config{
		Init: []float64{-2, 2},
		Lo:   []float64{-3, -3}, Hi: []float64{3, 3},
		Steps: 3000, BurnIn: 500, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best[0]-1) > 0.2 || math.Abs(res.Best[1]+0.5) > 0.2 {
		t.Fatalf("best %v far from mode (1, -0.5)", res.Best)
	}
	for _, lp := range res.LogPosts {
		if lp > res.BestLogP+1e-12 {
			t.Fatal("a sample beats Best")
		}
	}
}

func TestThinning(t *testing.T) {
	res, err := Metropolis(gaussTarget, Config{
		Init: []float64{0, 0},
		Lo:   []float64{-3, -3}, Hi: []float64{3, 3},
		Steps: 1000, BurnIn: 100, Thin: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 100 {
		t.Fatalf("thinned chain length %d want 100", len(res.Samples))
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) float64 {
		res, err := Metropolis(gaussTarget, Config{
			Init: []float64{0, 0},
			Lo:   []float64{-3, -3}, Hi: []float64{3, 3},
			Steps: 500, BurnIn: 100, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return columnMean(res.Samples, 0)
	}
	if run(7) != run(7) {
		t.Fatal("same seed differs")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds identical")
	}
}

func TestDegenerateDimension(t *testing.T) {
	// One dimension pinned (lo == hi) must not wedge the sampler.
	res, err := Metropolis(func(th []float64) float64 {
		return -th[0] * th[0]
	}, Config{
		Init: []float64{0.5, 2},
		Lo:   []float64{0, 2}, Hi: []float64{1, 2},
		Steps: 200, BurnIn: 50, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s[1] != 2 {
			t.Fatalf("pinned dimension moved: %v", s[1])
		}
	}
}

func TestESS(t *testing.T) {
	// Independent samples: ESS ≈ n.
	r := stats.NewRNG(6)
	var ind [][]float64
	for i := 0; i < 500; i++ {
		ind = append(ind, []float64{r.Norm()})
	}
	if ess := ESS(ind, 0); ess < 250 {
		t.Fatalf("independent ESS %v too low", ess)
	}
	// Perfectly correlated samples: ESS ≪ n.
	var corr [][]float64
	v := 0.0
	for i := 0; i < 500; i++ {
		v += 0.01 * r.Norm()
		corr = append(corr, []float64{v})
	}
	if ess := ESS(corr, 0); ess > 100 {
		t.Fatalf("random-walk ESS %v too high", ess)
	}
	if ESS(nil, 0) != 0 {
		t.Fatal("empty ESS should be 0")
	}
}

// Regression: a NaN log-posterior at Init used to run a silently stuck
// chain (every accept test false against NaN); it must be an error now.
func TestNaNAtInitIsAnError(t *testing.T) {
	nanAtInit := func(th []float64) float64 {
		if th[0] == 0.5 && th[1] == 0.5 {
			return math.NaN()
		}
		return gaussTarget(th)
	}
	_, err := Metropolis(nanAtInit, Config{
		Init: []float64{0.5, 0.5},
		Lo:   []float64{0, 0}, Hi: []float64{1, 1},
		Steps: 100, BurnIn: 10, Seed: 1,
	})
	if err == nil {
		t.Fatal("NaN initial log-posterior accepted; chain would be permanently stuck")
	}
}

// Regression: NaN proposals must be rejected, not wedge the chain. A target
// with a NaN pocket still explores the rest of the box.
func TestNaNProposalsAreRejected(t *testing.T) {
	nanPocket := func(th []float64) float64 {
		if th[0] > 0.8 {
			return math.NaN()
		}
		return gaussTarget(th)
	}
	res, err := Metropolis(nanPocket, Config{
		Init: []float64{0.5, 0.5},
		Lo:   []float64{0, 0}, Hi: []float64{1, 1},
		Steps: 2000, BurnIn: 200, Seed: 2, StepFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptRate == 0 {
		t.Fatal("chain never moved around a NaN pocket")
	}
	for _, s := range res.Samples {
		if s[0] > 0.8 {
			t.Fatalf("NaN-region sample retained: %v", s)
		}
		if math.IsNaN(s[0]) || math.IsNaN(s[1]) {
			t.Fatalf("NaN sample retained: %v", s)
		}
	}
	for _, lp := range res.LogPosts {
		if math.IsNaN(lp) {
			t.Fatal("NaN log-posterior retained")
		}
	}
}

// Regression: with bounds wide enough that hi-lo overflows to +Inf, the
// proposal scale is +Inf and draws are ±Inf (or NaN). The reflection loop
// used to oscillate 2·lo−x / 2·hi−x forever; it must now clamp and return.
func TestReflectionTerminatesOnNonFiniteProposals(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		res, err := Metropolis(func(th []float64) float64 {
			d := th[0] / 1e300
			return -d * d // finite for any in-box value
		}, Config{
			Init: []float64{0},
			Lo:   []float64{-1e308}, Hi: []float64{1e308},
			Steps: 200, BurnIn: 20, Seed: 3,
		})
		if err == nil {
			for _, s := range res.Samples {
				if s[0] < -1e308 || s[0] > 1e308 || math.IsNaN(s[0]) {
					err = fmt.Errorf("sample escaped box: %v", s[0])
					break
				}
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Metropolis hung in the reflection loop on a non-finite proposal")
	}
}

func TestReflectHelper(t *testing.T) {
	cases := []struct {
		x, cur, lo, hi, want float64
	}{
		{0.5, 0.2, 0, 1, 0.5},        // in box: untouched
		{-0.25, 0.2, 0, 1, 0.25},     // one reflection at lo
		{1.25, 0.2, 0, 1, 0.75},      // one reflection at hi
		{math.Inf(1), 0.2, 0, 1, 1},  // +Inf clamps to hi
		{math.Inf(-1), 0.2, 0, 1, 0}, // -Inf clamps to lo
		{math.NaN(), 0.2, 0, 1, 0.2}, // NaN keeps the current value
		{123, 0.5, 2, 2, 2},          // degenerate span pins to lo
		{1e300, 0.2, 0, 1, 0},        // reflection budget exceeded: clamp
	}
	for _, c := range cases {
		if got := reflect(c.x, c.cur, c.lo, c.hi); got != c.want {
			t.Errorf("reflect(%g, %g, %g, %g) = %g want %g", c.x, c.cur, c.lo, c.hi, got, c.want)
		}
	}
}

func TestColumnStatsEmpty(t *testing.T) {
	if !math.IsNaN(columnMean(nil, 0)) {
		t.Fatal("empty mean should be NaN")
	}
	if !math.IsNaN(columnQuantile(nil, 0, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// columnMean returns the mean of one coordinate across samples.
func columnMean(samples [][]float64, k int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range samples {
		s += x[k]
	}
	return s / float64(len(samples))
}

// columnQuantile returns a quantile of one coordinate across samples.
func columnQuantile(samples [][]float64, k int, q float64) float64 {
	col := make([]float64, len(samples))
	for i, x := range samples {
		col[i] = x[k]
	}
	return stats.Quantile(col, q)
}
