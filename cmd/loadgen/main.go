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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/scenario"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "episerve base URL")
	clients := fs.Int("clients", 64, "concurrent closed-loop clients")
	requests := fs.Int("requests", 256, "total request budget across clients")
	priority := fs.String("priority", "", "admission class: interactive | normal | batch")
	state := fs.String("state", "VA", "spec state code")
	days := fs.Int("days", 30, "spec forecast horizon")
	reps := fs.Int("replicates", 2, "spec replicates per configuration")
	fixed := fs.Bool("fixed", false, "send one identical spec (cache/dedup profile) instead of unique specs")
	mix := fs.Bool("mix", false, "cycle priorities interactive/normal/batch across requests (overrides -priority); the report breaks p50/p99 down per class")
	jsonOut := fs.Bool("json", false, "emit the report as JSON on stdout")
	fs.Parse(args)

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
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(stdout, "clients=%d requests=%d ok=%d errors=%d\n", rep.Clients, rep.Requests, rep.OK, rep.Errors)
	fmt.Fprintf(stdout, "p50=%s p99=%s throughput=%.1f req/s over %s\n", rep.P50, rep.P99, rep.Throughput, rep.Elapsed)
	for _, pri := range []string{"interactive", "normal", "batch"} {
		if st, ok := rep.ByPriority[pri]; ok {
			fmt.Fprintf(stdout, "  %-11s requests=%d ok=%d p50=%.1fms p99=%.1fms\n",
				pri, st.Requests, st.OK, st.P50ms, st.P99ms)
		}
	}
	for code, n := range rep.StatusDist {
		fmt.Fprintf(stdout, "  status %d: %d\n", code, n)
	}
	if rep.SlowestID != "" {
		fmt.Fprintf(stdout, "slowest request: %.1fms — inspect with GET %s/debug/requests/%s\n",
			rep.SlowestMS, *addr, rep.SlowestID)
	}
	return nil
}
