// Package lhs implements Latin hypercube sampling (McKay, Beckman & Conover
// 1979), which the paper uses to build the 100-configuration prior designs
// for Bayesian calibration (Appendix F, case study 3).
package lhs

import (
	"fmt"

	"repro/internal/stats"
)

// Range is a closed interval for one design parameter.
type Range struct {
	Name   string
	Lo, Hi float64
}

// Sample returns an n-point Latin hypercube design over the given parameter
// ranges. The result is an n × len(ranges) matrix of parameter settings:
// each column, when mapped back to [0,1), hits every one of the n equal
// strata exactly once.
func Sample(r *stats.RNG, n int, ranges []Range) ([][]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lhs: non-positive design size %d", n)
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("lhs: no parameter ranges")
	}
	for _, rg := range ranges {
		if rg.Hi < rg.Lo {
			return nil, fmt.Errorf("lhs: inverted range for %q: [%g, %g]", rg.Name, rg.Lo, rg.Hi)
		}
	}
	design := make([][]float64, n)
	for i := range design {
		design[i] = make([]float64, len(ranges))
	}
	for j, rg := range ranges {
		perm := r.Perm(n)
		for i := 0; i < n; i++ {
			// Random point within stratum perm[i].
			u := (float64(perm[i]) + r.Float64()) / float64(n)
			design[i][j] = rg.Lo + u*(rg.Hi-rg.Lo)
		}
	}
	return design, nil
}
