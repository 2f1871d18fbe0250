// Package stats provides the random number generation, probability
// distributions and summary statistics used throughout the epidemiological
// workflow suite.
//
// All stochastic components in this repository draw from an explicit *RNG so
// that every experiment is reproducible given a seed, independent of
// goroutine scheduling. The generator is xoshiro256** seeded via splitmix64,
// the combination recommended by Blackman & Vigna; it is small, fast, and
// passes BigCrush.
package stats

import (
	"fmt"
	"math"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; use Split to derive independent
// streams for parallel workers.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used for seeding and for deriving independent streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given seed. Distinct seeds give
// independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the stream of the given seed, producing
// exactly the sequence of NewRNG(seed). It lets hot loops hold one RNG
// value and re-key it per (node, tick) without a heap allocation.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Seeded returns a value-type generator seeded like NewRNG(seed). The
// value form lives on the caller's stack, so per-event keyed streams
// (the simulator draws one per node per tick) cost no allocation.
func Seeded(seed uint64) RNG {
	var r RNG
	r.Reseed(seed)
	return r
}

// First64 returns the first Uint64 of the stream Seeded(seed) without
// materializing the generator. xoshiro256**'s first output depends only
// on s[1] (the second splitmix64 output), and the all-zero reseed guard
// adjusts s[0] only, so two splitmix64 steps suffice. Hot paths that
// usually need just one draw use this, and fall back to Seeded — whose
// first Uint64 returns this same value — when more draws are required.
func First64(seed uint64) uint64 {
	sm := seed
	splitmix64(&sm)
	return rotl(splitmix64(&sm)*5, 7) * 9
}

// FirstFloat64 returns the first Float64 of the stream Seeded(seed); see
// First64.
func FirstFloat64(seed uint64) float64 {
	return float64(First64(seed)>>11) * (1.0 / (1 << 53))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent output. It is the supported way to hand RNGs to parallel
// workers: split once per worker in a deterministic order.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// State returns the generator's internal xoshiro256** state, positioned
// mid-stream. Together with SetState it lets simulation checkpoints resume
// an RNG exactly where it left off.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state previously obtained from State. The all-zero
// state is invalid for xoshiro and is rejected.
func (r *RNG) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("stats: all-zero RNG state")
	}
	r.s = s
	return nil
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // negligible bias for n << 2^64
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a standard normal variate (polar Marsaglia method).
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.Norm()
}

// TruncNormal samples a normal(mean, sd) truncated to [lo, hi] by rejection.
// It falls back to clamping after a bounded number of rejections so that
// pathological bounds cannot stall a simulation.
func (r *RNG) TruncNormal(mean, sd, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 64; i++ {
		x := r.Normal(mean, sd)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(math.Max(mean, lo), hi)
}

// Exp returns an exponential variate with the given rate.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Gamma returns a gamma variate with the given shape and scale
// (Marsaglia–Tsang method).
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: gamma(a) = gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a beta(a, b) variate.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	return x / (x + y)
}

// Binomial returns a binomial(n, p) variate.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Normal approximation when cheap and accurate.
	if float64(n)*p > 32 && float64(n)*(1-p) > 32 {
		mean := float64(n) * p
		sd := math.Sqrt(mean * (1 - p))
		k := int(math.Round(r.Normal(mean, sd)))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n elements using the provided swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns an index in [0, len(weights)) chosen with probability
// proportional to the weights. Zero or negative weights are never chosen;
// if all weights are non-positive a uniform index is returned.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
