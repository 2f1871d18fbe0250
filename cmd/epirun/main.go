// Command epirun executes one ⟨cell, region⟩ EpiHiper simulation and writes
// the raw transition log and the county-level summary to files — the unit
// of work the nightly pipeline schedules thousands of times.
//
// Usage:
//
//	epirun -state VA -days 90 -tau 0.25 -symp 0.65 -sh 0.45 -vhi 0.5 \
//	       -scale 5000 -seed 42 -out /tmp/va
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/obs"
	"repro/internal/output"
	"repro/internal/synthpop"
	"repro/internal/transfer"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(_ context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("epirun", flag.ExitOnError)
	state := fs.String("state", "VA", "region postal code")
	days := fs.Int("days", 90, "simulation horizon in days")
	tau := fs.Float64("tau", 0.18, "disease transmissibility (TAU)")
	symp := fs.Float64("symp", 0.65, "symptomatic fraction (SYMP)")
	sh := fs.Float64("sh", 0.45, "stay-at-home compliance")
	vhi := fs.Float64("vhi", 0.5, "voluntary home isolation compliance")
	shStart := fs.Int("sh-start", 15, "stay-at-home start day")
	scale := fs.Int("scale", 5000, "population scale (1:N)")
	seed := fs.Uint64("seed", 42, "random seed")
	shards := fs.Int("shards", 4, "shard processing units, each owning a disjoint node range (0 = GOMAXPROCS)")
	outDir := fs.String("out", "", "output directory (omit to skip files)")
	configPath := fs.String("config", "", "JSON simulation configuration (overrides the individual flags; see internal/epihiper JSONConfig)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	metricsDump := fs.String("metrics-dump", "", `dump Prometheus text metrics to FILE at the end of the run ("-" = stdout)`)
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			perr := writeFile(*memProfile, func(w io.Writer) error {
				runtime.GC() // settle the heap so the profile shows live objects
				return pprof.WriteHeapProfile(w)
			})
			if err == nil && perr != nil {
				err = fmt.Errorf("-memprofile: %w", perr)
			}
		}()
	}

	// The flags and -config fill one JSONConfig; the simulation is built
	// from it either way.
	var jc *epihiper.JSONConfig
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if jc, err = epihiper.ParseJSONConfig(data); err != nil {
			return err
		}
		// An explicit -shards beats the file; otherwise the file's "shards"
		// beats the flag's default.
		shardsSet := false
		fs.Visit(func(f *flag.Flag) { shardsSet = shardsSet || f.Name == "shards" })
		if shardsSet || jc.Shards <= 0 {
			jc.Shards = *shards
		}
	} else {
		model, err := core.Params{TAU: *tau, SYMP: *symp}.ApplyToModel(disease.COVID19())
		if err != nil {
			return err
		}
		jc = &epihiper.JSONConfig{
			Region: *state, Days: *days, Shards: *shards, Seed: *seed, Model: model,
			Interventions: []epihiper.InterventionSpec{
				{Type: "VHI", Compliance: *vhi, IsolationDays: 14},
				{Type: "SC", StartDay: *shStart, EndDay: *days},
				{Type: "SH", StartDay: *shStart + 15, EndDay: *days, Compliance: *sh},
			},
		}
	}
	// A file with seed 0 still generates its network from -seed.
	netSeed := jc.Seed
	if netSeed == 0 {
		netSeed = *seed
	}

	st, err := synthpop.StateByCode(jc.Region)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generating %s network at 1:%d scale...\n", st.Name, *scale)
	cfg := synthpop.DefaultConfig(netSeed)
	cfg.Scale = *scale
	net, err := synthpop.Generate(st, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  %d persons, %d contact edges (mean degree %.1f), %s in memory, %.1f bytes per edge\n",
		net.NumNodes(), net.NumEdges(), net.MeanDegree(),
		transfer.HumanBytes(net.Bytes()), float64(net.Bytes())/float64(net.NumEdges()))

	simCfg, err := jc.Build(net)
	if err != nil {
		return err
	}
	if len(simCfg.Seeds) == 0 && len(simCfg.SeedPersons) == 0 {
		simCfg.Seeds = seeding(net)
	}
	// The shard count is the parallelism: each shard owns its node range
	// and runs every phase of the tick. Zero means every core.
	if simCfg.Parallelism <= 0 {
		simCfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	logRec := &output.TransitionLog{}
	agg := output.NewCountyAggregator(net, simCfg.Days)
	simCfg.Recorder = epihiper.MultiRecorder{logRec, agg}
	reg := obs.NewRegistry()
	if *metricsDump != "" {
		simCfg.Metrics = reg
	}
	sim, err := epihiper.New(simCfg)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sim.Run()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "\nsimulated %d days in %v (%d shards)\n", res.Days, elapsed, sim.ShardCount())
	fmt.Fprintf(stdout, "  total infections: %d (attack rate %.1f%%)\n",
		res.TotalInfections, 100*epihiper.Attack(res, net.NumNodes()))
	conf := (&core.SimOutput{Result: res}).ConfirmedCumulative()
	fmt.Fprintf(stdout, "  cumulative confirmed: %.0f\n", conf[len(conf)-1])
	fmt.Fprintf(stdout, "  deaths: %d\n", sim.CumulativeCount(disease.Dead))
	fmt.Fprintf(stdout, "  transitions logged: %d (raw %s at this scale, ≈%s at 1:1)\n",
		len(logRec.Entries), transfer.HumanBytes(logRec.RawBytes()),
		transfer.HumanBytes(logRec.RawBytes()*int64(*scale)))
	fmt.Fprintf(stdout, "  peak modeled memory: %s\n", transfer.HumanBytes(res.PeakMemoryBytes))

	dend := output.BuildDendogram(logRec, disease.Exposed)
	fmt.Fprintf(stdout, "  dendogram: %d trees, %d infected, depth %d\n",
		len(dend.Roots), dend.Size(), dend.Depth())

	// The daily infectious prevalence as an ASCII epicurve, every fourth
	// day, bars scaled to the peak.
	prevalence := make([]int32, res.Days)
	peak := int32(0)
	for d := range prevalence {
		c := res.Current[d]
		prevalence[d] = c[disease.Symptomatic] + c[disease.Presymptomatic] + c[disease.Asymptomatic]
		peak = max(peak, prevalence[d])
	}
	fmt.Fprintln(stdout, "\nday  infectious prevalence")
	for d := 0; d < res.Days; d += 4 {
		bar := 0
		if peak > 0 {
			bar = int(prevalence[d]) * 50 / int(peak)
		}
		fmt.Fprintf(stdout, "%3d  %4d %s\n", d, prevalence[d], strings.Repeat("█", bar))
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		rawPath := filepath.Join(*outDir, "transitions.csv")
		if err := writeFile(rawPath, logRec.WriteCSV); err != nil {
			return err
		}
		sumPath := filepath.Join(*outDir, "summary.csv")
		if err := writeFile(sumPath, agg.WriteSummaryCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s and %s\n", rawPath, sumPath)
	}

	if *metricsDump != "" {
		reg.Help("epi_run_seconds", "wall-clock of the simulation run")
		reg.Gauge("epi_run_seconds").Set(elapsed.Seconds())
		reg.Help("epi_run_days", "simulated horizon in days")
		reg.Gauge("epi_run_days").Set(float64(res.Days))
		reg.Help("epi_run_infections_total", "total infections over the run")
		reg.Counter("epi_run_infections_total").Add(res.TotalInfections)
		reg.Help("epi_run_transitions_total", "state transitions logged")
		reg.Counter("epi_run_transitions_total").Add(int64(len(logRec.Entries)))
		reg.Help("epi_run_raw_bytes", "raw transition log size at this scale")
		reg.Gauge("epi_run_raw_bytes").Set(float64(logRec.RawBytes()))
		reg.Help("epi_run_peak_memory_bytes", "modeled peak memory of the run")
		reg.Gauge("epi_run_peak_memory_bytes").Set(float64(res.PeakMemoryBytes))
		if *metricsDump == "-" {
			return reg.WritePrometheus(stdout)
		}
		return writeFile(*metricsDump, reg.WritePrometheus)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// seeding places the run's five initial cases in the region's most populous
// county, the lowest FIPS code among counties that tie, so that one set of
// flags always simulates the same epidemic.
func seeding(net *synthpop.Network) []epihiper.Seeding {
	return []epihiper.Seeding{{CountyFIPS: net.Counties().Largest(), Day: 0, Count: 5}}
}
