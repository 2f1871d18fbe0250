// Command loadgen drives sustained concurrent traffic against a running
// episerve and reports client-side p50/p99 latency and throughput.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -clients 64 -requests 512
//
// Each client issues synchronous submissions (?wait=1) back to back until
// the request budget is spent. The default traffic profile is cache-miss
// prediction specs (every request a distinct content address), so the
// reported throughput measures computation capacity, not cache hits; pass
// -state/-days/-replicates to reshape the spec, or -fixed to hammer one
// spec and measure the dedup/cache path instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/scenario"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "episerve base URL")
	clients := flag.Int("clients", 64, "concurrent closed-loop clients")
	requests := flag.Int("requests", 256, "total request budget across clients")
	priority := flag.String("priority", "", "admission class: interactive | normal | batch")
	state := flag.String("state", "VA", "spec state code")
	days := flag.Int("days", 30, "spec forecast horizon")
	reps := flag.Int("replicates", 2, "spec replicates per configuration")
	fixed := flag.Bool("fixed", false, "send one identical spec (cache/dedup profile) instead of unique specs")
	mix := flag.Bool("mix", false, "cycle priorities interactive/normal/batch across requests (overrides -priority); the report breaks p50/p99 down per class")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	flag.Parse()

	specFor := func(client, seq int) scenario.Spec {
		s := DefaultSpecFor(client, seq)
		s.State, s.Days, s.Replicates = *state, *days, *reps
		if *fixed {
			s.Configs = nil // normalization fills defaults: every spec identical
		}
		return s
	}
	lcfg := LoadgenConfig{
		BaseURL: *addr, Clients: *clients, Requests: *requests,
		Priority: *priority, SpecFor: specFor,
	}
	if *mix {
		classes := []string{"interactive", "normal", "batch"}
		lcfg.PriorityFor = func(client, seq int) string {
			return classes[(client+seq)%len(classes)]
		}
	}
	rep, err := RunLoadgen(lcfg)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("clients=%d requests=%d ok=%d errors=%d\n", rep.Clients, rep.Requests, rep.OK, rep.Errors)
	fmt.Printf("p50=%s p99=%s throughput=%.1f req/s over %s\n", rep.P50, rep.P99, rep.Throughput, rep.Elapsed)
	for _, pri := range []string{"interactive", "normal", "batch"} {
		if st, ok := rep.ByPriority[pri]; ok {
			fmt.Printf("  %-11s requests=%d ok=%d p50=%.1fms p99=%.1fms\n",
				pri, st.Requests, st.OK, st.P50ms, st.P99ms)
		}
	}
	for code, n := range rep.StatusDist {
		fmt.Printf("  status %d: %d\n", code, n)
	}
	if rep.SlowestID != "" {
		fmt.Printf("slowest request: %.1fms — inspect with GET %s/debug/requests/%s\n",
			rep.SlowestMS, *addr, rep.SlowestID)
	}
}
