package forecast

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func normalForecast(t testing.TB, mean, sd float64) *Forecast {
	t.Helper()
	var qs []Quantile
	for _, p := range HubQuantileLevels() {
		qs = append(qs, Quantile{P: p, V: mean + sd*math.Sqrt2*math.Erfinv(2*p-1)})
	}
	f, err := NewForecast(qs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewForecastValidation(t *testing.T) {
	if _, err := NewForecast(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewForecast([]Quantile{{P: 0, V: 1}}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := NewForecast([]Quantile{{P: 0.2, V: 1}, {P: 0.2, V: 2}}); err == nil {
		t.Error("duplicate level accepted")
	}
	if _, err := NewForecast([]Quantile{{P: 0.2, V: 5}, {P: 0.8, V: 1}}); err == nil {
		t.Error("crossing quantiles accepted")
	}
}

// TestFromSamples reads every hub level through stats.SortedQuantile, bit
// for bit, and lands near the true quantiles of a large normal ensemble.
func TestFromSamples(t *testing.T) {
	r := stats.NewRNG(1)
	for _, n := range []int{5000, 1, 2, 23} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Normal(100, 10)
		}
		f, err := FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Quantiles) != 23 {
			t.Fatalf("%d quantiles want 23 (hub standard)", len(f.Quantiles))
		}
		slices.Sort(samples)
		for i, p := range HubQuantileLevels() {
			if q := f.Quantiles[i]; q.P != p || q.V != stats.SortedQuantile(samples, p) {
				t.Fatalf("n=%d, level %v: %+v, want %v", n, p, q, stats.SortedQuantile(samples, p))
			}
		}
		if n < 5000 {
			continue
		}
		if math.Abs(f.Median()-100) > 1 {
			t.Fatalf("median %v want ≈100", f.Median())
		}
		lo, hi := f.Interval(0.05)
		if math.Abs(lo-(100-1.96*10)) > 1.5 || math.Abs(hi-(100+1.96*10)) > 1.5 {
			t.Fatalf("95%% interval [%v, %v]", lo, hi)
		}
	}
	if _, err := FromSamples(nil); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestAtInterpolates(t *testing.T) {
	f, err := NewForecast([]Quantile{{P: 0.25, V: 10}, {P: 0.75, V: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if v := f.At(0.5); v != 15 {
		t.Fatalf("At(0.5) = %v want 15", v)
	}
	if v := f.At(0.01); v != 10 {
		t.Fatalf("At below range %v want clamp to 10", v)
	}
	if v := f.At(0.99); v != 20 {
		t.Fatalf("At above range %v want clamp to 20", v)
	}
}

func TestIntervalScoreProperties(t *testing.T) {
	f := normalForecast(t, 100, 10)
	inside := IntervalScore(f, 0.1, 100)
	outside := IntervalScore(f, 0.1, 150)
	if outside <= inside {
		t.Fatal("score should penalize misses")
	}
	// Inside the interval the score equals the width.
	lo, hi := f.Interval(0.1)
	if math.Abs(inside-(hi-lo)) > 1e-9 {
		t.Fatalf("inside score %v want width %v", inside, hi-lo)
	}
}

func TestWISProperties(t *testing.T) {
	f := normalForecast(t, 100, 10)
	atCenter := WIS(f, 100)
	missNear := WIS(f, 120)
	missFar := WIS(f, 200)
	if !(atCenter < missNear && missNear < missFar) {
		t.Fatalf("WIS not monotone in miss distance: %v, %v, %v", atCenter, missNear, missFar)
	}
	// A sharper forecast centered correctly scores better.
	sharp := normalForecast(t, 100, 2)
	if WIS(sharp, 100) >= WIS(f, 100) {
		t.Fatal("sharper correct forecast should score better")
	}
	// But a sharp, wrong forecast scores worse than a wide one.
	if WIS(sharp, 130) <= WIS(f, 130) {
		t.Fatal("overconfident wrong forecast should score worse")
	}
}

func TestWISNonNegativeQuick(t *testing.T) {
	err := quick.Check(func(seed uint16, obsRaw int16) bool {
		r := stats.NewRNG(uint64(seed))
		samples := make([]float64, 100)
		for i := range samples {
			samples[i] = r.Normal(50, 20)
		}
		f, err := FromSamples(samples)
		if err != nil {
			return false
		}
		return WIS(f, float64(obsRaw)) >= 0
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoverageCalibration(t *testing.T) {
	// Score a well-calibrated forecaster: observations drawn from the
	// same distribution as the forecast.
	r := stats.NewRNG(4)
	var card Scorecard
	f := normalForecast(t, 0, 1)
	for i := 0; i < 2000; i++ {
		card.Add(f, r.Norm())
	}
	if c := card.Coverage95(); c < 0.92 || c > 0.98 {
		t.Fatalf("95%% coverage %v", c)
	}
	if c := card.Coverage50(); c < 0.44 || c > 0.56 {
		t.Fatalf("50%% coverage %v", c)
	}
	if card.MAE() <= 0 || card.MeanWIS() <= 0 {
		t.Fatal("degenerate scores")
	}
}

func TestScorecardEmpty(t *testing.T) {
	var c Scorecard
	if !math.IsNaN(c.MAE()) || !math.IsNaN(c.MeanWIS()) || !math.IsNaN(c.Coverage95()) || !math.IsNaN(c.Coverage50()) {
		t.Fatal("empty scorecard should be NaN")
	}
}

func TestCovered(t *testing.T) {
	f := normalForecast(t, 100, 10)
	if !Covered(f, 0.05, 100) {
		t.Fatal("center not covered")
	}
	if Covered(f, 0.05, 200) {
		t.Fatal("far point covered")
	}
}
