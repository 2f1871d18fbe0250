package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one row of the metric tables in BENCHMARK.json; the tables
// below must list the same names and units (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of single layers (this repo's packages). A
// traced run reports every one; a layer the workload does not pass through
// reads 0, which is what was measured there.
var perLayer = []metricDef{
	{"scenario.http_floor_us", "us"},
	{"scenario.hit_us", "us"},
	{"scenario.miss_floor_ms", "ms"},
	{"scenario.abm_miss_ms", "ms"},
	{"scenario.cache_hit_ratio", "ratio"},
	{"scenario.dedup_ratio", "ratio"},
	{"scenario.rejected", "count"},
	{"fidelity.emulator_ms", "ms"},
	{"fidelity.metapop_ms", "ms"},
	{"fidelity.emulator_share", "ratio"},
	{"fidelity.metapop_share", "ratio"},
	{"fidelity.abm_share", "ratio"},
	{"fidelity.train_s", "s"},
	{"fidelity.refits", "count"},
	{"replica.hit_us", "us"},
	{"replica.miss_floor_ms", "ms"},
	{"replica.fail_ratio", "ratio"},
	{"replica.steals_per_dispatch", "ratio"},
	{"obs.trace_overhead_pct", "%"},
	{"core.prediction_ms", "ms"},
	{"core.whatif_cold_ms", "ms"},
	{"core.whatif_warm_ms", "ms"},
	{"core.alloc_mb_per_prediction", "MB"},
	{"core.night_utilization", "ratio"},
	{"core.retries_per_night", "count"},
	{"core.shed_per_night", "count"},
	{"sched.ffdtdc_ms", "ms"},
	{"sched.approx_ratio", "ratio"},
	{"cluster.exec_ms", "ms"},
	{"transfer.bytes_per_night", "MB"},
	{"synthpop.generate_ms", "ms"},
	{"synthpop.partition_ms", "ms"},
	{"synthpop.nodes", "count"},
	{"synthpop.edges", "count"},
	{"epihiper.new_ms", "ms"},
	{"epihiper.s1.upkeep_ms", "ms"},
	{"epihiper.s1.transmit_ms", "ms"},
	{"epihiper.s1.mutate_ms", "ms"},
	{"epihiper.s1.exchange_ms", "ms"},
	{"epihiper.s1.serial_ms", "ms"},
	{"epihiper.sN.upkeep_ms", "ms"},
	{"epihiper.sN.transmit_ms", "ms"},
	{"epihiper.sN.mutate_ms", "ms"},
	{"epihiper.sN.exchange_ms", "ms"},
	{"epihiper.sN.serial_ms", "ms"},
	{"epihiper.ns_per_edge_tick", "ns"},
	{"epihiper.shard_speedup_x", "x"},
	{"epihiper.infections", "count"},
	{"epihiper.alloc_mb_per_run", "MB"},
	{"epihiper.prefix_ms", "ms"},
	{"epihiper.snapshot_ms", "ms"},
	{"epihiper.restore_ms", "ms"},
	{"epihiper.snapshot_mb", "MB"},
	{"castore.get_ns", "ns"},
	{"castore.put_ns", "ns"},
	{"castore.snapshot_hit_ratio", "ratio"},
	{"castore.snapshot_evictions", "count"},
	{"castore.snapshot_mb", "MB"},
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ledger collects metric values by name while a workload runs.
type ledger map[string]float64

// report shapes the ledger as the metrics of one table. A name the run did
// not set reads 0.
func (l ledger) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: l[d.Name], Unit: d.Unit}
	}
	return out
}

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond of them
// beyond quantile q.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// percentile is the nearest-rank quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
