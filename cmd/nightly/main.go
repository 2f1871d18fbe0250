// Command nightly simulates the combined daily pipeline of Figure 1: for
// each Table I workflow it packs and executes a night on the simulated
// remote cluster, accounts the data transfers between the two sites, and
// prints the nightly report — the operational view the paper's Figure 2
// timeline wraps.
//
// Usage:
//
//	nightly -workflow prediction
//	nightly -workflow all -nights 3
//	nightly -workflow prediction -fault-rate 0.05 -max-retries 3
//	nightly -workflow calibration -carryover -nights 3 -fault-rate 0.05
//
// Observability: -journal FILE writes a JSONL run journal (one entry per
// closed span and per event: tasks placed/retried/shed, faults injected,
// transfer bytes), -trace-summary prints a per-phase wall-clock breakdown
// and the per-night utilization against the scheduling lower bound, and
// -metrics-dump FILE writes the unified metric registry in Prometheus text
// exposition at the end of the run ("-" for stdout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/transfer"
)

func main() {
	workflow := flag.String("workflow", "all", "economic | prediction | calibration | all")
	nights := flag.Int("nights", 1, "nights per workflow")
	heuristic := flag.String("heuristic", "FFDT-DC", "FFDT-DC | NFDT-DC")
	carryover := flag.Bool("carryover", false, "resubmit window-misses on later nights (resiliency mode)")
	seed := flag.Uint64("seed", 7, "random seed")
	faultRate := flag.Float64("fault-rate", 0,
		"per-attempt task crash probability; DB refusals and transfer stalls run at half this rate (0 = failure-free)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault model")
	maxRetries := flag.Int("max-retries", 3, "per-task requeue budget under faults (negative = shed on first failure)")
	journalPath := flag.String("journal", "", "write a JSONL run journal (span closes + events) to FILE")
	traceSummary := flag.Bool("trace-summary", false, "print per-phase wall-clock breakdown and utilization vs the scheduling bound")
	metricsDump := flag.String("metrics-dump", "", `dump Prometheus text metrics to FILE at the end of the run ("-" = stdout)`)
	flag.Parse()

	if *faultRate < 0 || *faultRate > 1 {
		log.Fatalf("-fault-rate %v outside [0, 1]", *faultRate)
	}
	faultSpec := faults.Spec{
		Seed:              *faultSeed,
		TaskCrashProb:     *faultRate,
		DBRefusalProb:     *faultRate / 2,
		TransferStallProb: *faultRate / 2,
	}
	recovery := core.RecoveryPolicy{MaxRetries: *maxRetries}

	p := core.NewPipeline(*seed)

	// Observability plumbing: a collector keeps the span/event stream in
	// memory for -trace-summary and tees it to the JSONL journal when
	// -journal is set; span durations feed epi_span_seconds on the registry.
	ctx := context.Background()
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	var collector *obs.Collector
	var journal *obs.Journal
	if *journalPath != "" || *traceSummary || *metricsDump != "" {
		var sink obs.Sink
		if *journalPath != "" {
			f, err := os.Create(*journalPath)
			if err != nil {
				log.Fatalf("-journal: %v", err)
			}
			defer f.Close()
			journal = obs.NewJournal(f)
			sink = journal
		}
		collector = obs.NewCollector(sink)
		ctx = obs.WithTracer(ctx, obs.NewTracer(collector, obs.WithSpanMetrics(reg)))
	}
	specs := core.TableI()
	want := strings.ToLower(*workflow)

	fmt.Println("=== weekly timeline (Figure 2) ===")
	for _, step := range core.WeeklyTimeline() {
		kind := "human"
		if step.Automated {
			kind = "auto "
		}
		fmt.Printf("  day %d [%s] %s\n", step.Day, kind, step.Name)
	}
	fmt.Println()

	day := 1
	for _, spec := range specs {
		name := strings.ToLower(spec.Kind.String())
		if want != "all" && want != name {
			continue
		}
		fmt.Printf("=== %s workflow: %d cells × %d states × %d replicates = %d simulations ===\n",
			spec.Kind, spec.Cells, spec.States, spec.Replicates, spec.Simulations())
		cfg := core.NightConfig{
			Spec: spec, Heuristic: *heuristic, Seed: *seed, Day: day,
			Faults: faultSpec, Recovery: recovery,
		}
		var reports []*core.NightReport
		if *carryover {
			var err error
			reports, err = p.RunNightsCtx(ctx, cfg, *nights)
			if err != nil {
				fmt.Printf("  WARNING: %v\n", err)
			}
		} else {
			for n := 0; n < *nights; n++ {
				cfg.Seed, cfg.Day = *seed+uint64(n), day+n
				rep, err := p.RunNightCtx(ctx, cfg)
				if err != nil {
					log.Fatal(err)
				}
				reports = append(reports, rep)
			}
		}
		day += len(reports)
		for n, rep := range reports {
			status := "within the 10h window"
			if !rep.FitsWindow {
				status = fmt.Sprintf("MISSED window (%d unstarted, %d shed)", rep.Unstarted, len(rep.Shed))
			}
			fmt.Printf("  night %d: %d tasks, makespan %.1fh, utilization %.1f%%, %s\n",
				n+1, rep.Tasks, rep.Makespan/3600, 100*rep.Utilization, status)
			if *traceSummary && rep.MakespanLB > 0 {
				fmt.Printf("           bound: makespan ≥ %.1fh ⇒ utilization ≤ %.1f%% (achieved %.1f%% of bound)\n",
					rep.MakespanLB/3600, 100*rep.UtilizationBound,
					100*rep.Utilization/rep.UtilizationBound)
			}
			fmt.Printf("           configs out %s, summaries back %s, raw kept remote %s\n",
				transfer.HumanBytes(rep.ConfigBytes),
				transfer.HumanBytes(rep.SummaryBytes),
				transfer.HumanBytes(rep.RawBytes))
			if *faultRate > 0 {
				fmt.Printf("           faults: %d crashes, %d DB refusals; %d requeues over %d rounds, %.0f node-s wasted, %d transfer retries\n",
					rep.Crashes, rep.DBRefusals, rep.Retries, rep.Rounds,
					rep.WastedNodeSeconds, rep.TransferRetries)
				if len(rep.Shed) > 0 {
					fmt.Printf("           shed %d tasks (%d retry-exhausted, %d window); lowest priority first:\n",
						len(rep.Shed), rep.ShedRetryExhausted, rep.ShedWindow)
					show := rep.Shed
					if len(show) > 5 {
						show = show[:5]
					}
					for _, ts := range show {
						fmt.Printf("             - %s cell %d replicate %d (%.0fs on %d nodes)\n",
							ts.Region, ts.Cell, ts.Replicate, ts.Time, ts.Nodes)
					}
					if len(rep.Shed) > len(show) {
						fmt.Printf("             … and %d more\n", len(rep.Shed)-len(show))
					}
				}
			}
		}
		fmt.Println()
	}

	fmt.Println("=== transfer ledger (Table II accounting) ===")
	fmt.Printf("  home→remote total: %s\n", transfer.HumanBytes(p.Ledger.TotalBytes(transfer.HomeToRemote)))
	fmt.Printf("  remote→home total: %s\n", transfer.HumanBytes(p.Ledger.TotalBytes(transfer.RemoteToHome)))
	fmt.Printf("  modeled transfer time: %.1f min\n", p.Ledger.TotalSeconds()/60)
	for _, lb := range p.Ledger.ByLabel() {
		fmt.Printf("    %-24s %s\n", lb.Label, transfer.HumanBytes(lb.Bytes))
	}

	if *traceSummary && collector != nil {
		entries := collector.Entries()
		fmt.Println()
		fmt.Println("=== trace summary (wall-clock by phase) ===")
		for _, ps := range obs.Summarize(entries) {
			fmt.Printf("  %-24s %6d spans  %12.4f s\n", ps.Name, ps.Count, ps.Seconds)
		}
		if events := obs.EventCounts(entries); len(events) > 0 {
			fmt.Println("  events:")
			for _, ev := range events {
				fmt.Printf("    %-24s %6d\n", ev.Name, ev.Count)
			}
		}
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			log.Printf("journal: %v", err)
		} else {
			fmt.Printf("\nrun journal written to %s\n", *journalPath)
		}
	}
	if *metricsDump != "" {
		out := os.Stdout
		if *metricsDump != "-" {
			f, err := os.Create(*metricsDump)
			if err != nil {
				log.Fatalf("-metrics-dump: %v", err)
			}
			defer f.Close()
			out = f
		}
		if err := reg.WritePrometheus(out); err != nil {
			log.Fatalf("-metrics-dump: %v", err)
		}
	}
}
