// Package surveillance synthesizes the ground-truth datasets the paper's
// calibration workflows consume: county-level daily confirmed case counts
// "starting from January 21, 2020, for over 3000 counties". The production
// pipeline pulls these from the NYT/JHU/UVA dashboards; here a seeded
// generator produces curves with the same statistical character — staggered
// county onsets, logistic growth with a second wave, reporting noise,
// weekend under-reporting and occasional batching — so the calibration code
// paths (Figures 13 and 14) see realistic input.
package surveillance

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/synthpop"
)

// CountySeries is one county's daily confirmed new-case counts.
type CountySeries struct {
	FIPS  int32
	Pop   int
	Daily []float64
}

// StateTruth is the ground truth for one state.
type StateTruth struct {
	State    string
	Days     int
	Counties []CountySeries
}

// Config controls ground-truth synthesis.
type Config struct {
	Days int
	Seed uint64
	// AttackRate is the fraction of a county's population confirmed by
	// the end of the horizon in the first wave.
	AttackRate float64
	// SecondWave enables a second, later wave in a random subset of
	// counties (the resurgence the paper's conclusion mentions).
	SecondWave bool
	// NoiseSD is the lognormal reporting-noise scale.
	NoiseSD float64
}

// DefaultConfig returns the standard ground-truth configuration
// (200+ days, matching "about 3000 counties × over 200 days of entries").
func DefaultConfig(seed uint64) Config {
	return Config{Days: 210, Seed: seed, AttackRate: 0.015, SecondWave: true, NoiseSD: 0.3}
}

// GenerateState synthesizes ground truth for one state.
func GenerateState(st synthpop.StateInfo, cfg Config) (*StateTruth, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("surveillance: non-positive horizon %d", cfg.Days)
	}
	if cfg.AttackRate <= 0 {
		cfg.AttackRate = 0.015
	}
	r := stats.NewRNG(cfg.Seed*2654435761 + uint64(st.FIPS))
	t := &StateTruth{State: st.Code, Days: cfg.Days}

	// County populations follow the same Zipf profile as synthpop.
	weights := make([]float64, st.Counties)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.8)
		total += weights[i]
	}
	for c := 0; c < st.Counties; c++ {
		pop := int(float64(st.Population) * weights[c] / total)
		if pop < 100 {
			pop = 100
		}
		series := make([]float64, cfg.Days)
		// First US case was Jan 21; community spread ramps from ~day 40
		// (early March), with larger counties seeded earlier.
		onset := 40.0 + r.Exp(1.0/15.0)*(1+2*float64(c)/float64(st.Counties))
		growth := 0.08 + 0.06*r.Float64()
		k := cfg.AttackRate * float64(pop) * (0.5 + r.Float64())
		mid := onset + 30 + 40*r.Float64()
		addLogisticWave(series, k, growth, mid)
		if cfg.SecondWave && r.Bool(0.6) {
			mid2 := mid + 70 + 40*r.Float64()
			addLogisticWave(series, k*(0.5+r.Float64()), growth*0.8, mid2)
		}
		// Reporting artefacts: multiplicative noise, weekend dips, and
		// occasional batch reporting (a dip followed by a spike).
		for d := range series {
			if series[d] <= 0 {
				continue
			}
			v := series[d] * r.LogNormal(0, cfg.NoiseSD)
			if d%7 == 5 || d%7 == 6 { // weekend
				carried := v * 0.4
				v -= carried
				if d+2 < len(series) {
					series[d+2] += carried
				}
			}
			series[d] = v
		}
		for d := range series {
			series[d] = math.Round(series[d])
			if series[d] < 0 {
				series[d] = 0
			}
		}
		t.Counties = append(t.Counties, CountySeries{
			FIPS: int32(synthpop.CountyFIPS(st.FIPS, c)), Pop: pop, Daily: series,
		})
	}
	return t, nil
}

// addLogisticWave adds the daily increments of a logistic cumulative wave
// with carrying capacity k, growth rate r and midpoint mid.
func addLogisticWave(series []float64, k, r, mid float64) {
	prev := k / (1 + math.Exp(r*mid))
	for d := range series {
		cur := k / (1 + math.Exp(-r*(float64(d)-mid)))
		series[d] += cur - prev
		prev = cur
	}
}

// StateDaily returns the state-level daily series (sum over counties).
func (t *StateTruth) StateDaily() []float64 {
	out := make([]float64, t.Days)
	for _, c := range t.Counties {
		for d, v := range c.Daily {
			out[d] += v
		}
	}
	return out
}

// StateCumulative returns the state-level cumulative series (Figure 14).
func (t *StateTruth) StateCumulative() []float64 {
	daily := t.StateDaily()
	acc := 0.0
	out := make([]float64, len(daily))
	for d, v := range daily {
		acc += v
		out[d] = acc
	}
	return out
}

// CountiesWithCases returns how many counties have a positive cumulative
// count by the given day (the paper: 2772 counties with cases by April 22,
// day 92).
func (t *StateTruth) CountiesWithCases(day int) int {
	n := 0
	for _, c := range t.Counties {
		cum := 0.0
		for d := 0; d <= day && d < len(c.Daily); d++ {
			cum += c.Daily[d]
		}
		if cum > 0 {
			n++
		}
	}
	return n
}

// GenerateUS synthesizes ground truth for all 51 regions.
func GenerateUS(cfg Config) (map[string]*StateTruth, error) {
	out := make(map[string]*StateTruth, len(synthpop.States))
	for _, st := range synthpop.States {
		t, err := GenerateState(st, cfg)
		if err != nil {
			return nil, err
		}
		out[st.Code] = t
	}
	return out, nil
}

// OnsetDay returns the first day the state's cumulative count exceeds the
// threshold (or 0 when it never does) — the community-spread alignment
// point calibration windows start from.
func (t *StateTruth) OnsetDay(threshold float64) int {
	cum := t.StateCumulative()
	for d, v := range cum {
		if v > threshold {
			return d
		}
	}
	return 0
}

// Window returns a copy of the truth restricted to days [from, to).
func (t *StateTruth) Window(from, to int) *StateTruth {
	if from < 0 {
		from = 0
	}
	if to > t.Days {
		to = t.Days
	}
	if to < from {
		to = from
	}
	out := &StateTruth{State: t.State, Days: to - from}
	for _, c := range t.Counties {
		out.Counties = append(out.Counties, CountySeries{
			FIPS: c.FIPS, Pop: c.Pop, Daily: append([]float64(nil), c.Daily[from:to]...),
		})
	}
	return out
}

// TruncateTo returns a copy of the truth limited to the first n days — the
// calibration workflows train on data "through April 11" and predict
// forward.
func (t *StateTruth) TruncateTo(n int) *StateTruth {
	if n > t.Days {
		n = t.Days
	}
	out := &StateTruth{State: t.State, Days: n}
	for _, c := range t.Counties {
		out.Counties = append(out.Counties, CountySeries{
			FIPS: c.FIPS, Pop: c.Pop, Daily: append([]float64(nil), c.Daily[:n]...),
		})
	}
	return out
}
