package mcmc

import (
	"context"
	"errors"
	"math"
	"testing"
)

func sharedTarget(t LogTarget) func(int) LogTarget {
	return func(int) LogTarget { return t }
}

func gaussMulti(steps int, chains, parallelism int, rhatMax float64) (*MultiResult, error) {
	return RunChainsCtx(context.Background(), sharedTarget(gaussTarget), MultiConfig{
		Config: Config{
			Init: []float64{0, 0},
			Lo:   []float64{-3, -3}, Hi: []float64{3, 3},
			Steps: steps, BurnIn: steps / 2, Seed: 11,
		},
		Chains: chains, Parallelism: parallelism, RHatMax: rhatMax,
	})
}

func TestRunChainsRecoversGaussian(t *testing.T) {
	res, err := gaussMulti(3000, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 4 {
		t.Fatalf("chains %d want 4", len(res.Chains))
	}
	if len(res.Samples) != 4*3000 {
		t.Fatalf("pooled samples %d want %d", len(res.Samples), 4*3000)
	}
	m0 := columnMean(res.Samples, 0)
	m1 := columnMean(res.Samples, 1)
	if math.Abs(m0-1) > 0.08 || math.Abs(m1+0.5) > 0.05 {
		t.Errorf("pooled means (%v, %v) want (1, -0.5)", m0, m1)
	}
	// A well-mixed unimodal target converges: R̂ near 1, healthy ESS.
	for k := 0; k < 2; k++ {
		if !(res.RHat[k] < 1.1) {
			t.Errorf("split-R̂[%d] = %v", k, res.RHat[k])
		}
		if res.ESS[k] < 100 {
			t.Errorf("pooled ESS[%d] = %v", k, res.ESS[k])
		}
	}
	if !res.Converged {
		t.Error("advisory Converged flag false on a well-mixed run")
	}
	if res.AcceptRate <= 0 || res.AcceptRate >= 1 {
		t.Errorf("pooled acceptance %v", res.AcceptRate)
	}
}

// The tentpole determinism contract: bit-identical pooled output for a
// fixed seed at any parallelism.
func TestRunChainsDeterministicAcrossParallelism(t *testing.T) {
	a, err := gaussMulti(600, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gaussMulti(600, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gaussMulti(600, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*MultiResult{b, c} {
		if len(a.Samples) != len(other.Samples) {
			t.Fatal("sample count differs across parallelism")
		}
		for i := range a.Samples {
			for k := range a.Samples[i] {
				if a.Samples[i][k] != other.Samples[i][k] {
					t.Fatalf("sample %d dim %d differs across parallelism: %v vs %v",
						i, k, a.Samples[i][k], other.Samples[i][k])
				}
			}
		}
		if a.BestLogP != other.BestLogP || a.AcceptRate != other.AcceptRate {
			t.Fatal("diagnostics differ across parallelism")
		}
		for k := range a.RHat {
			if a.RHat[k] != other.RHat[k] || a.ESS[k] != other.ESS[k] {
				t.Fatal("R̂/ESS differ across parallelism")
			}
		}
	}
}

func TestRunChainsOverDispersedStarts(t *testing.T) {
	res, err := gaussMulti(40, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chains 1..M-1 start from distinct uniform draws, so their first
	// retained samples should not all coincide with chain 0's.
	s0 := res.Chains[0].Samples[0]
	distinct := false
	for _, ch := range res.Chains[1:] {
		s := ch.Samples[0]
		if s[0] != s0[0] || s[1] != s0[1] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all chains collapsed onto the same trajectory")
	}
}

// A bimodal target with far-apart modes traps different chains in
// different modes: the gate must fire and surface a ConvergenceError.
func TestRHatGateFiresOnStuckChains(t *testing.T) {
	bimodal := func(th []float64) float64 {
		a := th[0] + 8
		b := th[0] - 8
		// Two needle modes at ±8; a chain cannot cross between them.
		return math.Log(math.Exp(-0.5*a*a/0.0001) + math.Exp(-0.5*b*b/0.0001) + 1e-300)
	}
	res, err := RunChainsCtx(context.Background(), sharedTarget(bimodal), MultiConfig{
		Config: Config{
			Init: []float64{-8},
			Lo:   []float64{-10}, Hi: []float64{10},
			Steps: 400, BurnIn: 200, Seed: 5, StepFrac: 0.02,
		},
		Chains: 4, RHatMax: 1.05,
	})
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("expected ConvergenceError, got %v", err)
	}
	if res == nil {
		t.Fatal("result withheld alongside ConvergenceError")
	}
	if res.Converged {
		t.Fatal("Converged true despite gate failure")
	}
	if ce.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestRunChainsChainErrorPropagates(t *testing.T) {
	nan := func([]float64) float64 { return math.NaN() }
	_, err := RunChainsCtx(context.Background(), sharedTarget(nan), MultiConfig{
		Config: Config{
			Init: []float64{0.5},
			Lo:   []float64{0}, Hi: []float64{1},
			Steps: 50, Seed: 1,
		},
		Chains: 2,
	})
	if err == nil {
		t.Fatal("NaN-everywhere target accepted")
	}
	var ce *ConvergenceError
	if errors.As(err, &ce) {
		t.Fatal("chain failure misreported as convergence failure")
	}
}

func TestSplitRHat(t *testing.T) {
	// Two identical stationary chains: R̂ ≈ 1.
	mk := func(level float64, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			// Stationary wiggle around the level.
			out[i] = []float64{level + 0.1*float64(i%7)}
		}
		return out
	}
	same := [][][]float64{mk(1, 200), mk(1, 200)}
	if r := SplitRHat(same, 0); math.Abs(r-1) > 0.1 {
		t.Fatalf("identical chains R̂ = %v want ≈1", r)
	}
	// Two tight chains at far-apart levels: R̂ far above 1.
	apart := [][][]float64{mk(1, 200), mk(40, 200)}
	if r := SplitRHat(apart, 0); r < 2 {
		t.Fatalf("separated chains R̂ = %v want ≫1", r)
	}
	// Too short to split.
	if !math.IsNaN(SplitRHat([][][]float64{mk(1, 3)}, 0)) {
		t.Fatal("short chains should give NaN")
	}
	// Pinned coordinate: converged by definition.
	pinned := make([][]float64, 50)
	for i := range pinned {
		pinned[i] = []float64{7}
	}
	if r := SplitRHat([][][]float64{pinned, pinned}, 0); r != 1 {
		t.Fatalf("pinned coordinate R̂ = %v want 1", r)
	}
}
