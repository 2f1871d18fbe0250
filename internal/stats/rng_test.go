package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split child mirrors parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(8)
	shape, scale := 3.0, 2.0
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Gamma(shape, scale)
	}
	mean := sum / n
	if math.Abs(mean-shape*scale) > 0.1 {
		t.Fatalf("gamma mean %v want %v", mean, shape*scale)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := NewRNG(9)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Gamma(0.5, 1.0)
		if x < 0 {
			t.Fatalf("negative gamma variate %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("gamma(0.5,1) mean %v want 0.5", mean)
	}
}

func TestBetaRange(t *testing.T) {
	r := NewRNG(10)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		x := r.Beta(2, 5)
		if x <= 0 || x >= 1 {
			t.Fatalf("beta variate out of (0,1): %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-2.0/7.0) > 0.01 {
		t.Fatalf("beta(2,5) mean %v want %v", mean, 2.0/7.0)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(11)
	for _, mean := range []float64{0.5, 4, 20, 100, 500} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("poisson(%v) mean %v", mean, got)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 10000; i++ {
		k := r.Binomial(20, 0.3)
		if k < 0 || k > 20 {
			t.Fatalf("binomial out of range: %d", k)
		}
	}
	if r.Binomial(10, 0) != 0 {
		t.Error("binomial p=0 should be 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("binomial p=1 should be n")
	}
}

func TestBinomialLargeN(t *testing.T) {
	r := NewRNG(13)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Binomial(1000, 0.25))
	}
	if mean := sum / n; math.Abs(mean-250) > 2 {
		t.Fatalf("binomial(1000,0.25) mean %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(14)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(15)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight index chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio %v want 3", ratio)
	}
}

func TestChoiceAllZeroWeights(t *testing.T) {
	r := NewRNG(16)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Choice([]float64{0, 0, 0})] = true
	}
	if len(seen) < 2 {
		t.Fatal("all-zero weights should fall back to uniform")
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(5, 2, 1, 9)
		if x < 1 || x > 9 {
			t.Fatalf("trunc normal out of bounds: %v", x)
		}
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	r := NewRNG(18)
	// Bounds far from the mean: rejection will fail; result must clamp.
	x := r.TruncNormal(0, 0.001, 100, 101)
	if x < 100 || x > 101 {
		t.Fatalf("degenerate trunc normal escaped bounds: %v", x)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(19)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("exp(2) mean %v want 0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(20)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// TestStateRoundTrip pins the stream-position accessors the simulator
// snapshot relies on: capturing State mid-stream and SetState-ing it into a
// second generator must reproduce the identical suffix of draws.
func TestStateRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	st := r.State()
	other := NewRNG(7)
	if err := other.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), other.Uint64(); a != b {
			t.Fatalf("draw %d diverges after state transfer: %#x vs %#x", i, a, b)
		}
	}
}

func TestSetStateRejectsAllZero(t *testing.T) {
	r := NewRNG(1)
	if err := r.SetState([4]uint64{}); err == nil {
		t.Fatal("SetState accepted the all-zero state (a xoshiro fixed point)")
	}
}

// poisson returns a poisson variate with the given mean. For large means it
// uses the normal approximation, which is adequate for count synthesis.
func (r *RNG) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
