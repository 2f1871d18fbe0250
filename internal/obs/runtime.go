package obs

import (
	"runtime"
	"runtime/metrics"
)

// RegisterRuntimeMetrics adds the Go runtime's own series to r: the live
// heap, the memory the runtime has mapped, completed GC cycles and
// goroutines, each read through runtime/metrics when scraped (no
// stop-the-world ReadMemStats), and epi_build_info naming the Go version.
// The live heap reads 0 until the first GC cycle completes.
func RegisterRuntimeMetrics(r *Registry) {
	for _, m := range []struct {
		name, sample, help string
		counter            bool
	}{
		{"epi_go_heap_live_bytes", "/gc/heap/live:bytes", "heap bytes live after the last GC", false},
		{"epi_go_memory_total_bytes", "/memory/classes/total:bytes", "bytes of memory the Go runtime has mapped", false},
		{"epi_go_gc_cycles_total", "/gc/cycles/total:gc-cycles", "completed GC cycles", true},
		{"epi_go_goroutines", "/sched/goroutines:goroutines", "live goroutines", false},
	} {
		read := func() float64 {
			s := []metrics.Sample{{Name: m.sample}}
			metrics.Read(s)
			return float64(s[0].Value.Uint64())
		}
		r.Help(m.name, m.help)
		if m.counter {
			r.CounterFunc(m.name, read)
		} else {
			r.GaugeFunc(m.name, read)
		}
	}
	r.Help("epi_build_info", "constant 1, labelled with the Go version the binary was built with")
	r.GaugeFunc(`epi_build_info{go_version="`+runtime.Version()+`"}`, func() float64 { return 1 })
}
