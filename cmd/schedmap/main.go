// Command schedmap runs the Section V scheduling experiments: it builds a
// nightly workload, packs it with NFDT-DC, FFDT-DC and FIFO, executes each
// on the simulated remote cluster, and prints the Figure 9 utilization
// comparison across multiple nights.
//
// Usage:
//
//	schedmap -nights 9 -cells 12 -replicates 15 -db-bound 16
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/stats"
)

func main() {
	nights := flag.Int("nights", 9, "number of simulated nights")
	cells := flag.Int("cells", 12, "cells per region")
	replicates := flag.Int("replicates", 15, "replicates per cell")
	dbBound := flag.Int("db-bound", 16, "per-region DB connection bound")
	vaOnly := flag.Bool("va-only", false, "simulate Virginia-only nights (Figure 9 right)")
	flag.Parse()

	spec := cluster.Bridges()
	deadline := cluster.NightlyWindow().Seconds()
	fmt.Printf("cluster: %s — %d nodes, %d cores; window %v s\n",
		spec.Name, spec.Nodes, spec.TotalCores(), deadline)

	var nf, ff []float64
	for night := 0; night < *nights; night++ {
		w := sched.Workload{Cells: *cells, Replicates: *replicates,
			Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}
		tasks := w.Tasks(stats.NewRNG(uint64(night) + 1))
		bounds := sched.DefaultDBBounds(*dbBound)
		if *vaOnly {
			var vaTasks []sched.Task
			for _, t := range tasks {
				if t.Region == "VA" {
					vaTasks = append(vaTasks, t)
				}
			}
			tasks = vaTasks
			bounds = map[string]int{"VA": 180}
		}
		c := sched.Constraints{TotalNodes: spec.Nodes, DBBound: bounds}

		nfSched, err := sched.NFDTDC(tasks, c)
		if err != nil {
			panic(err)
		}
		ffSched, err := sched.FFDTDC(tasks, c)
		if err != nil {
			panic(err)
		}
		nfExec := cluster.ExecuteLevelSync(nfSched, 0)
		ffExec, err := cluster.ExecuteBackfill(ffSched.Flatten(), c, 0)
		if err != nil {
			panic(err)
		}
		nf = append(nf, nfExec.Utilization)
		ff = append(ff, ffExec.Utilization)
		fits := "fits window"
		if ffExec.Makespan > deadline {
			fits = "OVERRUNS window"
		}
		fmt.Printf("night %d: %5d tasks  NFDT-DC %.1f%% (%.0fs)  FFDT-DC %.1f%% (%.0fs, %s)\n",
			night+1, len(tasks),
			100*nfExec.Utilization, nfExec.Makespan,
			100*ffExec.Utilization, ffExec.Makespan, fits)
	}
	sort.Float64s(nf)
	sort.Float64s(ff)
	fmt.Printf("\nFigure 9 summary over %d nights:\n", *nights)
	fmt.Printf("  NFDT-DC median utilization: %.3f%% (paper: 44.237–55.579%%)\n", 100*stats.Median(nf))
	fmt.Printf("  FFDT-DC median utilization: %.3f%% (paper: 96.698%% all-state, 95.534%% VA-only)\n", 100*stats.Median(ff))
}
