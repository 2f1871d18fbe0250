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
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	state := flag.String("state", "VA", "region postal code")
	days := flag.Int("days", 90, "simulation horizon in days")
	tau := flag.Float64("tau", 0.18, "disease transmissibility (TAU)")
	symp := flag.Float64("symp", 0.65, "symptomatic fraction (SYMP)")
	sh := flag.Float64("sh", 0.45, "stay-at-home compliance")
	vhi := flag.Float64("vhi", 0.5, "voluntary home isolation compliance")
	shStart := flag.Int("sh-start", 15, "stay-at-home start day")
	scale := flag.Int("scale", 5000, "population scale (1:N)")
	seed := flag.Uint64("seed", 42, "random seed")
	shards := flag.Int("shards", 4, "shard processing units, each owning a disjoint node range (0 = GOMAXPROCS)")
	outDir := flag.String("out", "", "output directory (omit to skip files)")
	configPath := flag.String("config", "", "JSON simulation configuration (overrides the individual flags; see internal/epihiper JSONConfig)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	metricsDump := flag.String("metrics-dump", "", `dump Prometheus text metrics to FILE at the end of the run ("-" = stdout)`)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	var jsonCfg *epihiper.JSONConfig
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		jsonCfg, err = epihiper.ParseJSONConfig(data)
		if err != nil {
			log.Fatal(err)
		}
		*state = jsonCfg.Region
		*days = jsonCfg.Days
		if jsonCfg.Seed != 0 {
			*seed = jsonCfg.Seed
		}
		// An explicit -shards beats the file; otherwise the file's "shards"
		// beats the flag's default.
		shardsSet := false
		flag.Visit(func(f *flag.Flag) { shardsSet = shardsSet || f.Name == "shards" })
		if !shardsSet && jsonCfg.Shards > 0 {
			*shards = jsonCfg.Shards
		}
	}

	// The shard count is the parallelism: each shard owns its node range
	// and runs every phase of the tick. Zero means every core.
	effShards := *shards
	if effShards <= 0 {
		effShards = runtime.GOMAXPROCS(0)
	}

	st, err := synthpop.StateByCode(*state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generating %s network at 1:%d scale...\n", st.Name, *scale)
	cfg := synthpop.DefaultConfig(*seed)
	cfg.Scale = *scale
	net, err := synthpop.Generate(st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d persons, %d contact edges (mean degree %.1f), %s in memory, %.1f bytes per edge\n",
		net.NumNodes(), net.NumEdges(), net.MeanDegree(),
		transfer.HumanBytes(net.Bytes()), float64(net.Bytes())/float64(net.NumEdges()))

	pr := core.Params{TAU: *tau, SYMP: *symp, SHCompliance: *sh, VHICompliance: *vhi}
	model, err := pr.ApplyToModel(disease.COVID19())
	if err != nil {
		log.Fatal(err)
	}

	logRec := &output.TransitionLog{}
	agg := output.NewCountyAggregator(net, *days)
	var simCfg epihiper.Config
	if jsonCfg != nil {
		simCfg, err = jsonCfg.Build(net)
		if err != nil {
			log.Fatal(err)
		}
		if len(simCfg.Seeds) == 0 && len(simCfg.SeedPersons) == 0 {
			simCfg.Seeds = seeding(net)
		}
	} else {
		simCfg = epihiper.Config{
			Model: model, Network: net, Days: *days,
			Seed:  *seed,
			Seeds: seeding(net),
			Interventions: []epihiper.Intervention{
				&epihiper.VoluntaryHomeIsolation{Compliance: *vhi, IsolationDays: 14},
				&epihiper.SchoolClosure{StartDay: *shStart, EndDay: *days},
				&epihiper.StayAtHome{StartDay: *shStart + 15, EndDay: *days, Compliance: *sh},
			},
		}
	}
	simCfg.Recorder = epihiper.MultiRecorder{logRec, agg}
	simCfg.Parallelism = effShards
	reg := obs.NewRegistry()
	if *metricsDump != "" {
		simCfg.Metrics = reg
	}
	sim, err := epihiper.New(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nsimulated %d days in %v (%d shards)\n", *days, elapsed, sim.ShardCount())
	fmt.Printf("  total infections: %d (attack rate %.1f%%)\n",
		res.TotalInfections, 100*epihiper.Attack(res, net.NumNodes()))
	conf := (&core.SimOutput{Result: res}).ConfirmedCumulative()
	fmt.Printf("  cumulative confirmed: %.0f\n", conf[len(conf)-1])
	fmt.Printf("  deaths: %d\n", sim.CumulativeCount(disease.Dead))
	fmt.Printf("  transitions logged: %d (raw %s at this scale, ≈%s at 1:1)\n",
		len(logRec.Entries), transfer.HumanBytes(logRec.RawBytes()),
		transfer.HumanBytes(logRec.RawBytes()*int64(*scale)))
	fmt.Printf("  peak modeled memory: %s\n", transfer.HumanBytes(res.PeakMemoryBytes))

	dend := output.BuildDendogram(logRec, disease.Exposed)
	fmt.Printf("  dendogram: %d trees, %d infected, depth %d\n",
		len(dend.Roots), dend.Size(), dend.Depth())

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		rawPath := filepath.Join(*outDir, "transitions.csv")
		f, err := os.Create(rawPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := logRec.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		sumPath := filepath.Join(*outDir, "summary.csv")
		g, err := os.Create(sumPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := agg.WriteSummaryCSV(g); err != nil {
			log.Fatal(err)
		}
		g.Close()
		fmt.Printf("  wrote %s and %s\n", rawPath, sumPath)
	}

	if *metricsDump != "" {
		reg.Help("epi_run_seconds", "wall-clock of the simulation run")
		reg.Gauge("epi_run_seconds").Set(elapsed.Seconds())
		reg.Help("epi_run_days", "simulated horizon in days")
		reg.Gauge("epi_run_days").Set(float64(*days))
		reg.Help("epi_run_infections_total", "total infections over the run")
		reg.Counter("epi_run_infections_total").Add(res.TotalInfections)
		reg.Help("epi_run_transitions_total", "state transitions logged")
		reg.Counter("epi_run_transitions_total").Add(int64(len(logRec.Entries)))
		reg.Help("epi_run_raw_bytes", "raw transition log size at this scale")
		reg.Gauge("epi_run_raw_bytes").Set(float64(logRec.RawBytes()))
		reg.Help("epi_run_peak_memory_bytes", "modeled peak memory of the run")
		reg.Gauge("epi_run_peak_memory_bytes").Set(float64(res.PeakMemoryBytes))
		w := os.Stdout
		if *metricsDump != "-" {
			f, err := os.Create(*metricsDump)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WritePrometheus(w); err != nil {
			log.Fatal(err)
		}
	}
}

// seeding places the run's five initial cases in the region's most populous
// county, the lowest FIPS code among counties that tie, so that one set of
// flags always simulates the same epidemic.
func seeding(net *synthpop.Network) []epihiper.Seeding {
	return []epihiper.Seeding{{CountyFIPS: net.Counties().Largest(), Day: 0, Count: 5}}
}
