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
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/transfer"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nightly", flag.ExitOnError)
	workflow := fs.String("workflow", "all", "economic | prediction | calibration | all")
	nights := fs.Int("nights", 1, "nights per workflow")
	heuristic := fs.String("heuristic", "FFDT-DC", "FFDT-DC | NFDT-DC")
	carryover := fs.Bool("carryover", false, "resubmit window-misses on later nights (resiliency mode)")
	seed := fs.Uint64("seed", 7, "random seed")
	faultRate := fs.Float64("fault-rate", 0,
		"per-attempt task crash probability; DB refusals and transfer stalls run at half this rate (0 = failure-free)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed of the deterministic fault model")
	maxRetries := fs.Int("max-retries", 3, "per-task requeue budget under faults (negative = shed on first failure)")
	journalPath := fs.String("journal", "", "write a JSONL run journal (span closes + events) to FILE")
	traceSummary := fs.Bool("trace-summary", false, "print per-phase wall-clock breakdown and utilization vs the scheduling bound")
	metricsDump := fs.String("metrics-dump", "", `dump Prometheus text metrics to FILE at the end of the run ("-" = stdout)`)
	fs.Parse(args)

	if *faultRate < 0 || *faultRate > 1 {
		return fmt.Errorf("-fault-rate %v outside [0, 1]", *faultRate)
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
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	var collector *obs.Collector
	var journal *obs.Journal
	if *journalPath != "" || *traceSummary || *metricsDump != "" {
		var sink obs.Sink
		if *journalPath != "" {
			f, err := os.Create(*journalPath)
			if err != nil {
				return fmt.Errorf("-journal: %w", err)
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

	fmt.Fprintln(stdout, "=== weekly timeline (Figure 2) ===")
	for _, step := range core.WeeklyTimeline() {
		kind := "human"
		if step.Automated {
			kind = "auto "
		}
		fmt.Fprintf(stdout, "  day %d [%s] %s\n", step.Day, kind, step.Name)
	}
	fmt.Fprintln(stdout)

	day := 1
	for _, spec := range specs {
		name := strings.ToLower(spec.Kind.String())
		if want != "all" && want != name {
			continue
		}
		fmt.Fprintf(stdout, "=== %s workflow: %d cells × %d states × %d replicates = %d simulations ===\n",
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
				fmt.Fprintf(stdout, "  WARNING: %v\n", err)
			}
		} else {
			for n := 0; n < *nights; n++ {
				cfg.Seed, cfg.Day = *seed+uint64(n), day+n
				rep, err := p.RunNightCtx(ctx, cfg)
				if err != nil {
					return err
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
			fmt.Fprintf(stdout, "  night %d: %d tasks, makespan %.1fh, utilization %.1f%%, %s\n",
				n+1, rep.Tasks, rep.Makespan/3600, 100*rep.Utilization, status)
			if *traceSummary && rep.MakespanLB > 0 {
				fmt.Fprintf(stdout, "           bound: makespan ≥ %.1fh ⇒ utilization ≤ %.1f%% (achieved %.1f%% of bound)\n",
					rep.MakespanLB/3600, 100*rep.UtilizationBound,
					100*rep.Utilization/rep.UtilizationBound)
			}
			fmt.Fprintf(stdout, "           configs out %s, summaries back %s, raw kept remote %s\n",
				transfer.HumanBytes(rep.ConfigBytes),
				transfer.HumanBytes(rep.SummaryBytes),
				transfer.HumanBytes(rep.RawBytes))
			if *faultRate > 0 {
				fmt.Fprintf(stdout, "           faults: %d crashes, %d DB refusals; %d requeues over %d rounds, %.0f node-s wasted, %d transfer retries\n",
					rep.Crashes, rep.DBRefusals, rep.Retries, rep.Rounds,
					rep.WastedNodeSeconds, rep.TransferRetries)
				if len(rep.Shed) > 0 {
					fmt.Fprintf(stdout, "           shed %d tasks (%d retry-exhausted, %d window); lowest priority first:\n",
						len(rep.Shed), rep.ShedRetryExhausted, rep.ShedWindow)
					show := rep.Shed
					if len(show) > 5 {
						show = show[:5]
					}
					for _, ts := range show {
						fmt.Fprintf(stdout, "             - %s cell %d replicate %d (%.0fs on %d nodes)\n",
							ts.Region, ts.Cell, ts.Replicate, ts.Time, ts.Nodes)
					}
					if len(rep.Shed) > len(show) {
						fmt.Fprintf(stdout, "             … and %d more\n", len(rep.Shed)-len(show))
					}
				}
			}
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "=== transfer ledger (Table II accounting) ===")
	fmt.Fprintf(stdout, "  home→remote total: %s\n", transfer.HumanBytes(p.Ledger.TotalBytes(transfer.HomeToRemote)))
	fmt.Fprintf(stdout, "  remote→home total: %s\n", transfer.HumanBytes(p.Ledger.TotalBytes(transfer.RemoteToHome)))
	fmt.Fprintf(stdout, "  modeled transfer time: %.1f min\n", p.Ledger.TotalSeconds()/60)
	for _, lb := range p.Ledger.ByLabel() {
		fmt.Fprintf(stdout, "    %-24s %s\n", lb.Label, transfer.HumanBytes(lb.Bytes))
	}

	if *traceSummary && collector != nil {
		entries := collector.Entries()
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "=== trace summary (wall-clock by phase) ===")
		for _, ps := range obs.Summarize(entries) {
			fmt.Fprintf(stdout, "  %-24s %6d spans  %12.4f s\n", ps.Name, ps.Count, ps.Seconds)
		}
		if events := obs.EventCounts(entries); len(events) > 0 {
			fmt.Fprintln(stdout, "  events:")
			for _, ev := range events {
				fmt.Fprintf(stdout, "    %-24s %6d\n", ev.Name, ev.Count)
			}
		}
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			log.Printf("journal: %v", err)
		} else {
			fmt.Fprintf(stdout, "\nrun journal written to %s\n", *journalPath)
		}
	}
	if *metricsDump != "" {
		w := stdout
		if *metricsDump != "-" {
			f, err := os.Create(*metricsDump)
			if err != nil {
				return fmt.Errorf("-metrics-dump: %w", err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WritePrometheus(w); err != nil {
			return fmt.Errorf("-metrics-dump: %w", err)
		}
	}
	return nil
}
