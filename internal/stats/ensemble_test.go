package stats_test

import (
	"slices"
	"testing"

	"repro/internal/forecast"
	"repro/internal/stats"
)

// TestEnsembleQuantiles holds the helper, and so SortedQuantile, to
// stats.Quantile of each day's column at the band levels, the ends and the
// hub levels, for ensembles of 1 to 30 series. The series are left as they
// were, and the allocations do not grow with the horizon.
func TestEnsembleQuantiles(t *testing.T) {
	const days = 200
	levels := append([]float64{0, 0.025, 0.5, 0.975, 1}, forecast.HubQuantileLevels()...)
	r := stats.NewRNG(42)
	for _, n := range []int{1, 2, 3, 30} {
		series, before := make([][]float64, n), make([][]float64, n)
		for i := range series {
			series[i] = make([]float64, days)
			for d := range series[i] {
				series[i][d] = float64(r.Intn(10)) + float64(d%2)*r.Normal(0, 100) // ties on even days
			}
			before[i] = slices.Clone(series[i])
		}
		out, head := make([][]float64, len(levels)), make([][]float64, len(levels))
		for k := range out {
			out[k] = make([]float64, days)
			head[k] = out[k][:10]
		}
		stats.EnsembleQuantiles(series, levels, out...)
		col := make([]float64, n)
		for d := 0; d < days; d++ {
			for i, s := range series {
				col[i] = s[d]
			}
			for k, q := range levels {
				if want := stats.Quantile(col, q); out[k][d] != want {
					t.Fatalf("n=%d, day %d, level %v: %v, per-day quantile %v", n, d, q, out[k][d], want)
				}
			}
		}
		for i := range series {
			if !slices.Equal(series[i], before[i]) {
				t.Fatalf("n=%d: series %d changed", n, i)
			}
		}
		short := testing.AllocsPerRun(20, func() { stats.EnsembleQuantiles(series, levels, head...) })
		long := testing.AllocsPerRun(20, func() { stats.EnsembleQuantiles(series, levels, out...) })
		if long != short {
			t.Errorf("n=%d: %v allocations over %d days, %v over 10: the helper allocates per day", n, long, days, short)
		}
	}
}
