// Command episerve is the scenario service: an HTTP front end over the
// three production workflows (prediction, what-if, nightly). Policy-makers
// submit scenario specs; the service content-addresses each spec, serves it
// from an LRU result store or attaches it to an identical run in flight
// (single-flight), and otherwise admits it by priority class to one bounded
// FIFO served by -workers workers over a shared core.Pipeline.
//
// Usage:
//
//	episerve -addr :8080 -workers 2 -queue 16 -cache 64 -scale 20000 -seed 2020
//
// Submit, poll and fetch:
//
//	curl -s -X POST localhost:8080/scenarios -d '{"workflow":"prediction","state":"VA","days":60}'
//	curl -s localhost:8080/scenarios/<id>
//	curl -s localhost:8080/scenarios/<id>/result
//	curl -s localhost:8080/readyz           # readiness incl. fidelity tier warm state
//	curl -s localhost:8080/metrics          # Prometheus text (unified registry)
//
// With -fidelity (default on), specs may carry "fidelity": "auto" and a
// "max_uncertainty" budget: the service then answers from a GP emulator or
// the corrected county metapop when they can meet the budget, running the
// full ABM only otherwise (and folding every ABM answer back into the
// emulator's training set). "fidelity": "abm" forces the exact path;
// omitting the field keeps the legacy behavior byte-for-byte. A family is
// refitted inside the job whose ABM answer crossed its staleness bound, so
// that job's reply and the drain on shutdown wait for the refit, and
// /readyz reflects it once the reply is out.
//
// /metrics serves the unified registry: serving counters (submissions,
// queue, result store, per-workflow latency histograms) plus the shared
// pipeline's transfer-ledger and fault counters and the what-if snapshot
// store (epi_snapshot_* hit/miss/eviction/occupancy series; budget set by
// -snap-cache). -pprof additionally mounts net/http/pprof under
// /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, queued
// and in-flight jobs drain (bounded by -drain-timeout), the request journal
// is closed, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run serves until ctx is canceled, then drains and returns nil. It logs
// to the standard logger and writes nothing to stdout.
func run(ctx context.Context, args []string, _ io.Writer) error {
	fs := flag.NewFlagSet("episerve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "workers serving the job queue")
	queueCap := fs.Int("queue", 16, "job queue capacity (a full queue returns 429)")
	cacheCap := fs.Int("cache", 64, "result cache capacity (LRU entries)")
	snapCacheMB := fs.Int64("snap-cache", core.DefaultSnapshotCacheBytes>>20,
		"what-if snapshot cache budget in MB (0 disables cross-request prefix reuse)")
	scale := fs.Int("scale", 20000, "population scale (1:N)")
	seed := fs.Uint64("seed", 2020, "pipeline random seed")
	shards := fs.Int("shards", 2, "the most shards one simulation runs, each owning a disjoint node range; a request fanning out k simulations gives each at most GOMAXPROCS/k; results are bit-identical at any value")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	enableFidelity := fs.Bool("fidelity", true,
		"enable the fidelity ladder (specs with a fidelity field route through emulator/metapop/abm tiers)")
	fidelityMinFit := fs.Int("fidelity-min-fit", 8, "ABM design points before a family's emulator fits")
	fidelityCacheMB := fs.Int64("fidelity-cache", 64, "fidelity training-set cache budget in MB")
	replicas := fs.Int("replicas", 1,
		"multiplies -workers and -queue (kept because the benchmark in bench/ passes it)")
	recorderCap := fs.Int("recorder", 256,
		"flight-recorder capacity: last N request traces kept at /debug/requests (0 disables request tracing, RED series and /slo)")
	sloP99 := fs.Duration("slo-p99", 0,
		"latency objective a good request must meet (0 = error-budget SLO only)")
	sloObjective := fs.Float64("slo-objective", 0.99,
		"fraction of requests that must be good over -slo-window")
	sloWindow := fs.Duration("slo-window", time.Hour,
		"long SLO burn window; burn rates also computed over window/12 and window/3")
	requestJournal := fs.String("request-journal", "",
		"JSONL file receiving every request-trace span/event (flushed and closed on drain); empty disables")
	fs.Parse(args)

	p := core.NewPipeline(*seed, core.WithScale(*scale), core.WithParallelism(*shards),
		core.WithSnapshotCacheBytes(*snapCacheMB<<20))
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	p.RegisterMetrics(reg)
	var router *fidelity.Router
	if *enableFidelity {
		router = fidelity.NewRouter(fidelity.Config{
			Fingerprint: p.Fingerprint(), Scale: *scale,
			MinFit: *fidelityMinFit, MaxBytes: *fidelityCacheMB << 20,
		})
		router.RegisterMetrics(reg)
	}
	if *replicas > 1 {
		*workers *= *replicas
		*queueCap *= *replicas
	}
	svc := scenario.NewService(scenario.Config{
		Pipeline: p, Workers: *workers, QueueCap: *queueCap, CacheCap: *cacheCap,
		Registry: reg, Fidelity: router,
	})
	// Request-scoped serving observability: trace every scenario request
	// into the flight recorder, optionally teeing the span/event stream to
	// a JSONL journal that MUST be flushed+closed after drain (the tail of
	// a terminated run is exactly the part worth keeping).
	var servingObs *scenario.ServingObs
	var journal *obs.Journal
	if *recorderCap > 0 {
		obsCfg := scenario.ServingObsConfig{
			RecorderCapacity: *recorderCap,
			SLOTarget:        *sloP99,
			SLOObjective:     *sloObjective,
			SLOWindow:        *sloWindow,
		}
		if *requestJournal != "" {
			var err error
			journal, err = obs.OpenFileJournal(*requestJournal)
			if err != nil {
				return fmt.Errorf("request journal: %w", err)
			}
			obsCfg.Journal = journal
		}
		servingObs = scenario.NewServingObs(reg, obsCfg)
	}
	var handler http.Handler = scenario.NewServer(svc, servingObs)
	if *enablePprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		log.Printf("episerve listening on %s (workers=%d queue=%d cache=%d scale=1:%d seed=%d)",
			*addr, *workers, *queueCap, *cacheCap, *scale, *seed)
		errc <- srv.ListenAndServe()
	}()

	var serveErr error
	select {
	case serveErr = <-errc:
		// The listener failed: drain what it admitted, then report it.
	case <-ctx.Done():
		log.Printf("shutting down, draining (budget %s)", *drainTimeout)
	}

	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Drain(dctx); err != nil {
		log.Printf("drain interrupted, in-flight jobs canceled: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	// Close the request journal only after the drain settled: jobs that ran
	// to completion during the drain emit their final spans through it, and
	// Close flushes the buffered writer so those last entries survive.
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Printf("request journal close: %v", err)
		}
	}
	if serveErr == nil {
		serveErr = <-errc // http.ErrServerClosed once Shutdown has run
	}
	if !errors.Is(serveErr, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", serveErr)
	}
	return nil
}
