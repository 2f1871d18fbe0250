package sched

import (
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// This file models the paper's nightly workload: the 3-level
// regions-cells-replicates hierarchy, the small/medium/large node
// categorization, and the empirical task-time model (time directly
// correlated with network size; interventions inflate it, Figure 7).

// NodesForRegion assigns the compute-node category of Section VI: the 51
// networks are divided into small (2 nodes), medium (4) and large (6) so
// that "jobs have sufficient memory to complete even the complex
// intervention scenarios".
func NodesForRegion(population int) int {
	switch {
	case population > 12_000_000:
		return 6
	case population > 4_000_000:
		return 4
	default:
		return 2
	}
}

// TimeModel predicts a task's running time from its region's scale, the
// node assignment and the intervention complexity factor. Figure 7 (top)
// shows time linear in network size at fixed processing units; Figure 8
// shows state runtimes from under 100 s to ≈1400 s. The defaults reproduce
// that range (California ≈ 900 s: 300 steps at ≈3 s each).
type TimeModel struct {
	// BaseSeconds is the fixed start-up cost (partition load, DB attach).
	BaseSeconds float64
	// SecondsPerPersonPerNode scales the per-tick work.
	SecondsPerPersonPerNode float64
	// InterventionFactor multiplies the variable part (1 = base case;
	// the paper's D2CT reaches ≈4, a 300% increase).
	InterventionFactor float64
	// NoiseSD is the lognormal sd of run-to-run variability (randomness
	// within the computation, triggered interventions, machine noise).
	NoiseSD float64
}

// DefaultTimeModel returns the calibrated defaults.
func DefaultTimeModel() TimeModel {
	return TimeModel{
		BaseSeconds:             60,
		SecondsPerPersonPerNode: 1.3e-4,
		InterventionFactor:      1,
		NoiseSD:                 0.08,
	}
}

// Mean returns t(T[c,r]), the empirical mean running time for a region.
func (tm TimeModel) Mean(population, nodes int) float64 {
	variable := tm.SecondsPerPersonPerNode * float64(population) / float64(nodes)
	f := tm.InterventionFactor
	if f <= 0 {
		f = 1
	}
	return tm.BaseSeconds + variable*f
}

// Sample returns one noisy realization of the running time.
func (tm TimeModel) Sample(population, nodes int, r *stats.RNG) float64 {
	m := tm.Mean(population, nodes)
	if tm.NoiseSD <= 0 {
		return m
	}
	return m * r.LogNormal(0, tm.NoiseSD)
}

// Workload builds the full ⟨cell, region⟩ task set of one night.
type Workload struct {
	// Cells is the number of cells per region; Replicates per cell.
	Cells, Replicates int
	// Regions restricts the workload (nil = all 51; the paper's VA-only
	// nights use a single region with many cells).
	Regions []synthpop.StateInfo
	// Time is the task-time model.
	Time TimeModel
	// GroupReplicates runs all replicates of a cell inside one task (the
	// paper groups "several cells into one to create jobs of appropriate
	// sizes"); when false, each replicate is its own task.
	GroupReplicates bool
	// MaxInterventionFactor spreads intervention complexity across the
	// cells of the factorial design: cell c gets a factor interpolated in
	// [1, MaxInterventionFactor] (Figure 7 bottom: D2CT reaches ≈4×).
	// Zero or one disables the spread.
	MaxInterventionFactor float64
}

// cellFactor interpolates the intervention factor for cell c of `cells`.
func (w Workload) cellFactor(c, cells int) float64 {
	if w.MaxInterventionFactor <= 1 || cells <= 1 {
		return 1
	}
	return 1 + (w.MaxInterventionFactor-1)*float64(c)/float64(cells-1)
}

// Tasks materializes the workload. Replicate-grouped tasks multiply the
// time by the replicate count; the per-task noise uses the provided RNG and
// is deterministic in task order.
func (w Workload) Tasks(r *stats.RNG) []Task {
	regions := w.Regions
	if regions == nil {
		regions = synthpop.States
	}
	cells := w.Cells
	if cells <= 0 {
		cells = 1
	}
	reps := w.Replicates
	if reps <= 0 {
		reps = 1
	}
	perCell := reps
	if w.GroupReplicates {
		perCell = 1
	}
	out := make([]Task, 0, len(regions)*cells*perCell)
	for _, st := range regions {
		nodes := NodesForRegion(st.Population)
		for c := 0; c < cells; c++ {
			tm := w.Time
			tm.InterventionFactor = w.cellFactor(c, cells) * maxf(1, tm.InterventionFactor)
			if w.GroupReplicates {
				t := tm.Sample(st.Population, nodes, r) * float64(reps)
				out = append(out, Task{Region: st.Code, Cell: c, Replicate: -1, Nodes: nodes, Time: t})
				continue
			}
			for rep := 0; rep < reps; rep++ {
				out = append(out, Task{
					Region: st.Code, Cell: c, Replicate: rep,
					Nodes: nodes,
					Time:  tm.Sample(st.Population, nodes, r),
				})
			}
		}
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// DefaultDBBounds gives every region the same simultaneous-connection
// bound B(T[r]).
func DefaultDBBounds(bound int) map[string]int {
	out := make(map[string]int, len(synthpop.States))
	for _, st := range synthpop.States {
		out[st.Code] = bound
	}
	return out
}
