// Scheduling study — the Section V / Figure 9 reproduction as a runnable
// example: pack a night of ⟨cell, region⟩ tasks with NFDT-DC and FFDT-DC,
// execute both on the simulated Bridges allocation, and render the
// utilization CDFs over many nights.
//
//	go run ./examples/scheduling_study
package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/stats"
)

func main() {
	spec := cluster.Bridges()
	window := cluster.NightlyWindow()
	fmt.Printf("remote cluster: %s (%d nodes / %d cores), window %dh\n\n",
		spec.Name, spec.Nodes, spec.TotalCores(), window.Hours())

	const nights = 9 // the paper reports 9 all-state workflow runs
	var nf, ff []float64
	for night := 0; night < nights; night++ {
		w := sched.Workload{Cells: 12, Replicates: 15,
			Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}
		tasks := w.Tasks(stats.NewRNG(uint64(night) + 100))
		c := sched.Constraints{TotalNodes: spec.Nodes, DBBound: sched.DefaultDBBounds(16)}

		nfSched, err := sched.NFDTDC(tasks, c)
		if err != nil {
			panic(err)
		}
		ffSched, err := sched.FFDTDC(tasks, c)
		if err != nil {
			panic(err)
		}
		nfRes := cluster.ExecuteLevelSync(nfSched, 0)
		ffRes, err := cluster.ExecuteBackfill(ffSched.Flatten(), c, 0)
		if err != nil {
			panic(err)
		}
		nf = append(nf, nfRes.Utilization)
		ff = append(ff, ffRes.Utilization)
	}

	fmt.Println("Figure 9 (left): utilization CDF over all-state nights")
	plotCDF := func(name string, xs []float64) {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		fmt.Printf("  %s\n", name)
		for i, u := range s {
			frac := float64(i+1) / float64(len(s))
			fmt.Printf("    %5.1f%% util  CDF %.2f %s\n", 100*u, frac,
				strings.Repeat("·", int(40*frac)))
		}
		fmt.Printf("    median %.3f%%\n", 100*stats.Median(xs))
	}
	plotCDF("NFDT-DC (initial runs; paper: 44.237–55.579%)", nf)
	plotCDF("FFDT-DC (largest first + backfill; paper median: 96.698%)", ff)

	// The decomposition story of Section V, Step 1: the conflict graph of
	// one region's tasks is a clique; the r-relaxed coloring gives the
	// number of time slots a region needs under its DB bound.
	fmt.Println("\nr-relaxed coloring of one region's 12-task clique:")
	for _, r := range []int{1, 3, 11} {
		colors, err := sched.CliqueColoring(12, r)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  r=%2d → %d time slots\n", r, sched.NumColors(colors))
	}
}
