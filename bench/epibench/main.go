// Command epibench is this repository's benchmark: five workloads, an
// end-to-end table measured with tracing off, and a traced run that fills a
// per-layer ledger. See bench/README.md.
//
//	epibench -workload serve-cold -seed 1 -seconds 15 -trace 0
//
// runs one workload and prints, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics. Without -workload it runs
// every workload, each in a fresh child process of itself, and prints the
// tables; -repeat N does so N times with seeds seed, seed+1, … and checks
// the spread of every end-to-end metric against its bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "input seed; 2 is the held-out seed for later claims")
		seconds  = flag.Float64("seconds", 15, "measuring time of one run")
		trace    = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics in place of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "span JSONL of a traced run (default <root>/"+buildDir+"/trace-<workload>.jsonl)")
		repeat   = flag.Int("repeat", 1, "all-workloads mode: end-to-end passes, each with the next seed; >1 checks spreads against bounds")
		out      = flag.String("out", "", "all-workloads mode: write the result document, with the host stamp, to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "epibench: bad arguments")
		flag.Usage()
		return 2
	}
	// Ctrl-C and SIGTERM cancel the run; every path below then unwinds
	// through the deferred stops, so no episerve child outlives us.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "epibench:", err)
		return 1
	}
	if *name == "" {
		return runAll(ctx, root, *seed, *seconds, *trace == 1, *repeat, *out)
	}
	return runOne(ctx, root, *name, *seed, *seconds, *trace == 1, *traceOut)
}

// info is the line a single-workload run prints before its result line: what
// the result line's fixed keys have no room for.
type info struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Trace        bool     `json:"trace"`
	Samples      int      `json:"samples"`
	ResultDigest string   `json:"result_digest"`
	DigestOps    int      `json:"digest_ops"`
	Errors       []string `json:"errors,omitempty"`
}

// runOne runs one workload in this process and prints its info and result
// lines. The exit code is nonzero when the run broke or any op failed.
func runOne(ctx context.Context, root, name string, seed uint64, seconds float64, traced bool, traceOut string) int {
	var w *workload
	all := workloads(seed)
	for i := range all {
		if all[i].name == name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "epibench: unknown workload %q\n", name)
		return 2
	}
	e := &env{seed: seed, nproc: runtime.NumCPU(),
		seconds: time.Duration(seconds * float64(time.Second))}
	var err error
	if e.bin, err = buildEpiserve(ctx, root); err != nil {
		fmt.Fprintln(os.Stderr, "epibench:", err)
		return 1
	}

	var (
		m    *measured
		vals ledger
		defs []metricDef
	)
	if traced {
		e.tr = newTracer()
		vals, defs = ledger{}, perLayer
		m, err = w.trace(ctx, e, vals)
		if traceOut == "" {
			traceOut = filepath.Join(root, buildDir, "trace-"+name+".jsonl")
		}
		if werr := e.tr.writeJSONL(traceOut); werr != nil && err == nil {
			err = werr
		}
	} else {
		defs = endToEnd
		if m, err = w.e2e(ctx, e); err == nil {
			vals = m.endToEnd()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "epibench: %s: %v\n", name, err)
		return 1
	}

	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: vals.report(defs)}
	for _, d := range defs {
		fmt.Printf("%-14s %-30s %14.4f %s\n", name, d.Name, vals[d.Name], d.Unit)
	}
	printJSON(info{Workload: name, Seed: seed, Trace: traced, Samples: len(m.latency),
		ResultDigest: m.digest, DigestOps: m.digestOps, Errors: m.errs})
	printJSON(res)
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	fmt.Println(string(b))
}

// endToEnd derives the end-to-end metrics from a run.
func (m *measured) endToEnd() ledger {
	tail := m.tail
	if tail == nil {
		tail = m.latency
		if !supported(len(tail), m.tailQ) {
			fmt.Fprintf(os.Stderr, "epibench: latency_tail_ms: %d samples leave fewer than %d beyond p%.0f\n",
				len(tail), minBeyond, 100*m.tailQ)
		}
	}
	var rate, cpuPerOp []float64
	for _, r := range m.rounds {
		if r.ops > 0 && r.wall > 0 {
			rate = append(rate, float64(r.ops)/r.wall.Seconds())
			cpuPerOp = append(cpuPerOp, ms(r.cpu)/float64(r.ops))
		}
	}
	return ledger{
		"setup_s":         m.setupS,
		"ops_per_s":       median(rate),
		"latency_p50_ms":  percentile(sortedCopy(msOf(m.latency)), 0.5),
		"latency_tail_ms": percentile(sortedCopy(msOf(tail)), m.tailQ),
		"cpu_ms_per_op":   median(cpuPerOp),
		"peak_rss_mb":     m.rssMB,
	}
}
