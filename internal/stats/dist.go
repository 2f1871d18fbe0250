package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a univariate distribution that can be sampled and whose log
// density can be evaluated. It is the currency of the MCMC priors and of
// the dwell-time distributions in the disease model.
type Dist interface {
	Sample(r *RNG) float64
	LogPDF(x float64) float64
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// LogPDF returns the log density, -Inf outside the support.
func (u Uniform) LogPDF(x float64) float64 {
	if x < u.Lo || x > u.Hi || u.Hi <= u.Lo {
		return math.Inf(-1)
	}
	return -math.Log(u.Hi - u.Lo)
}

// Normal is the normal distribution.
type Normal struct {
	Mean, SD float64
}

// Sample draws a normal variate.
func (n Normal) Sample(r *RNG) float64 { return r.Normal(n.Mean, n.SD) }

// LogPDF returns the log density.
func (n Normal) LogPDF(x float64) float64 {
	if n.SD <= 0 {
		return math.Inf(-1)
	}
	z := (x - n.Mean) / n.SD
	return -0.5*z*z - math.Log(n.SD) - 0.5*math.Log(2*math.Pi)
}

// Gamma is the gamma distribution with shape a and rate b (mean a/b).
type Gamma struct {
	Shape, Rate float64
}

// Sample draws a gamma variate.
func (g Gamma) Sample(r *RNG) float64 { return r.Gamma(g.Shape, 1/g.Rate) }

// LogPDF returns the log density.
func (g Gamma) LogPDF(x float64) float64 {
	if x <= 0 || g.Shape <= 0 || g.Rate <= 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(g.Shape)
	return g.Shape*math.Log(g.Rate) - lg + (g.Shape-1)*math.Log(x) - g.Rate*x
}

// Beta is the beta distribution.
type Beta struct {
	A, B float64
}

// Sample draws a beta variate.
func (b Beta) Sample(r *RNG) float64 { return r.Beta(b.A, b.B) }

// LogPDF returns the log density.
func (b Beta) LogPDF(x float64) float64 {
	if x <= 0 || x >= 1 || b.A <= 0 || b.B <= 0 {
		return math.Inf(-1)
	}
	la, _ := math.Lgamma(b.A)
	lb, _ := math.Lgamma(b.B)
	lab, _ := math.Lgamma(b.A + b.B)
	return (b.A-1)*math.Log(x) + (b.B-1)*math.Log(1-x) + lab - la - lb
}

// LogNormal is the log-normal distribution parameterized by the mean and sd
// of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 { return r.LogNormal(l.Mu, l.Sigma) }

// LogPDF returns the log density.
func (l LogNormal) LogPDF(x float64) float64 {
	if x <= 0 || l.Sigma <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return -0.5*z*z - math.Log(x*l.Sigma) - 0.5*math.Log(2*math.Pi)
}

// Discrete is a distribution over the values Vals with probabilities Probs.
// It is used for the discrete dwell-time distributions of Table III (e.g.
// Symptomatic → Attended: {1: 0.175, 2: 0.175, ...}).
type Discrete struct {
	Vals  []float64
	Probs []float64
}

// NewDiscrete builds a Discrete distribution and normalizes the weights.
// It returns an error if the inputs are mismatched or the total weight is
// not positive.
func NewDiscrete(vals, probs []float64) (Discrete, error) {
	if len(vals) != len(probs) || len(vals) == 0 {
		return Discrete{}, fmt.Errorf("stats: discrete needs equal, non-empty vals/probs (got %d, %d)", len(vals), len(probs))
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 {
			return Discrete{}, fmt.Errorf("stats: negative probability %g", p)
		}
		total += p
	}
	if total <= 0 {
		return Discrete{}, fmt.Errorf("stats: discrete weights sum to %g", total)
	}
	norm := make([]float64, len(probs))
	for i, p := range probs {
		norm[i] = p / total
	}
	return Discrete{Vals: append([]float64(nil), vals...), Probs: norm}, nil
}

// Sample draws one of the values.
func (d Discrete) Sample(r *RNG) float64 { return d.Vals[r.Choice(d.Probs)] }

// LogPDF returns log P(X = x), -Inf for values outside the support.
func (d Discrete) LogPDF(x float64) float64 {
	for i, v := range d.Vals {
		if v == x {
			return math.Log(d.Probs[i])
		}
	}
	return math.Inf(-1)
}

// Fixed is a degenerate distribution concentrated at V. Table III expresses
// several dwell times as fixed values.
type Fixed struct {
	V float64
}

// Sample returns the fixed value.
func (f Fixed) Sample(r *RNG) float64 { return f.V }

// LogPDF returns 0 at the point mass and -Inf elsewhere.
func (f Fixed) LogPDF(x float64) float64 {
	if x == f.V {
		return 0
	}
	return math.Inf(-1)
}

// TruncNormal is a normal truncated to positive values, rounded use is left
// to the caller. Table III dwell times given as mean/sd pairs are sampled
// from this.
type TruncNormal struct {
	Mean, SD, Lo, Hi float64
}

// Sample draws a truncated normal variate.
func (t TruncNormal) Sample(r *RNG) float64 { return r.TruncNormal(t.Mean, t.SD, t.Lo, t.Hi) }

// LogPDF returns the (unnormalized) log density within the truncation
// bounds. The normalization constant is omitted because the MCMC use sites
// only need densities up to proportionality at fixed bounds.
func (t TruncNormal) LogPDF(x float64) float64 {
	if x < t.Lo || x > t.Hi || t.SD <= 0 {
		return math.Inf(-1)
	}
	z := (x - t.Mean) / t.SD
	return -0.5 * z * z
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile of xs (linear interpolation between
// order statistics). It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// Quantiles returns multiple quantiles of xs with one sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = sortedQuantile(s, q)
	}
	return out
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Correlation returns the Pearson correlation of xs and ys. It panics if the
// lengths differ and returns 0 when either series is constant.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: correlation length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
