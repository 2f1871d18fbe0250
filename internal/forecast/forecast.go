// Package forecast implements the scoring machinery used to evaluate the
// pipeline's weekly forecasts. The paper's group submits to the CDC /
// COVID-19 Forecast Hub ensembles; the hub's standard scores are the mean
// absolute error of the point forecast, prediction-interval coverage, and
// the weighted interval score (WIS) over a set of central intervals —
// implemented here so forecast quality can be tracked release over
// release.
package forecast

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Quantile pairs a probability level with its forecast value.
type Quantile struct {
	P float64
	V float64
}

// Forecast is one target's predictive distribution, as the hub formats it:
// a set of quantiles, symmetric around the median.
type Forecast struct {
	Quantiles []Quantile
}

// NewForecast builds a Forecast and sorts/validates the quantiles.
func NewForecast(qs []Quantile) (*Forecast, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("forecast: no quantiles")
	}
	out := append([]Quantile(nil), qs...)
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	for i, q := range out {
		if q.P <= 0 || q.P >= 1 {
			return nil, fmt.Errorf("forecast: quantile level %g outside (0,1)", q.P)
		}
		if i > 0 {
			if q.P == out[i-1].P {
				return nil, fmt.Errorf("forecast: duplicate quantile level %g", q.P)
			}
			if q.V < out[i-1].V {
				return nil, fmt.Errorf("forecast: quantile crossing at level %g", q.P)
			}
		}
	}
	return &Forecast{Quantiles: out}, nil
}

// FromSamples builds a hub-style forecast from ensemble samples at the
// standard 23 hub quantile levels.
func FromSamples(samples []float64) (*Forecast, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("forecast: no samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var qs []Quantile
	for _, p := range HubQuantileLevels() {
		qs = append(qs, Quantile{P: p, V: stats.SortedQuantile(s, p)})
	}
	return NewForecast(qs)
}

// HubQuantileLevels returns the 23 standard hub levels.
func HubQuantileLevels() []float64 {
	return []float64{
		0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
		0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.975, 0.99,
	}
}

// Median returns the 0.5 quantile (interpolated when absent).
func (f *Forecast) Median() float64 { return f.At(0.5) }

// At interpolates the forecast value at an arbitrary level.
func (f *Forecast) At(p float64) float64 {
	qs := f.Quantiles
	if p <= qs[0].P {
		return qs[0].V
	}
	if p >= qs[len(qs)-1].P {
		return qs[len(qs)-1].V
	}
	for i := 1; i < len(qs); i++ {
		if p <= qs[i].P {
			span := qs[i].P - qs[i-1].P
			if span == 0 {
				return qs[i].V
			}
			frac := (p - qs[i-1].P) / span
			return qs[i-1].V + frac*(qs[i].V-qs[i-1].V)
		}
	}
	return qs[len(qs)-1].V
}

// Interval returns the central (1−alpha) interval.
func (f *Forecast) Interval(alpha float64) (lo, hi float64) {
	return f.At(alpha / 2), f.At(1 - alpha/2)
}

// AbsError returns |median − observed|.
func AbsError(f *Forecast, observed float64) float64 {
	return math.Abs(f.Median() - observed)
}

// IntervalScore computes the classical interval score for the central
// (1−alpha) interval: width + (2/alpha)·distance outside.
func IntervalScore(f *Forecast, alpha, observed float64) float64 {
	lo, hi := f.Interval(alpha)
	score := hi - lo
	if observed < lo {
		score += 2 / alpha * (lo - observed)
	}
	if observed > hi {
		score += 2 / alpha * (observed - hi)
	}
	return score
}

// WIS computes the weighted interval score over the hub's standard alphas
// {0.02, 0.05, 0.1, 0.2, …, 0.9} plus the median term:
//
//	WIS = (|y − median|/2 + Σ_k (α_k/2)·IS_{α_k}) / (K + 1/2)
func WIS(f *Forecast, observed float64) float64 {
	alphas := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	total := 0.5 * AbsError(f, observed)
	for _, a := range alphas {
		total += (a / 2) * IntervalScore(f, a, observed)
	}
	return total / (float64(len(alphas)) + 0.5)
}

// Covered reports whether the observation falls inside the central
// (1−alpha) interval.
func Covered(f *Forecast, alpha, observed float64) bool {
	lo, hi := f.Interval(alpha)
	return observed >= lo && observed <= hi
}

// Scorecard aggregates scores over many (forecast, observation) pairs —
// one row per forecast date × horizon × location, as the hub evaluates.
type Scorecard struct {
	N         int
	SumAE     float64
	SumWIS    float64
	Covered95 int
	Covered50 int
}

// Add scores one pair into the card.
func (c *Scorecard) Add(f *Forecast, observed float64) {
	c.N++
	c.SumAE += AbsError(f, observed)
	c.SumWIS += WIS(f, observed)
	if Covered(f, 0.05, observed) {
		c.Covered95++
	}
	if Covered(f, 0.5, observed) {
		c.Covered50++
	}
}

// MAE returns the mean absolute error.
func (c *Scorecard) MAE() float64 {
	if c.N == 0 {
		return math.NaN()
	}
	return c.SumAE / float64(c.N)
}

// MeanWIS returns the mean weighted interval score.
func (c *Scorecard) MeanWIS() float64 {
	if c.N == 0 {
		return math.NaN()
	}
	return c.SumWIS / float64(c.N)
}

// Coverage95 returns the empirical 95% interval coverage.
func (c *Scorecard) Coverage95() float64 {
	if c.N == 0 {
		return math.NaN()
	}
	return float64(c.Covered95) / float64(c.N)
}

// Coverage50 returns the empirical 50% interval coverage.
func (c *Scorecard) Coverage50() float64 {
	if c.N == 0 {
		return math.NaN()
	}
	return float64(c.Covered50) / float64(c.N)
}
