// Package sched implements the workflow-mapping machinery of Section V:
// the ⟨cell, region⟩ task model, the DB-access-constrained workflow mapping
// problem (DB-WMP), the r-relaxed coloring formulation of the database
// constraint, and the two level-oriented packing heuristics the paper
// evaluates — Next-Fit Decreasing Time with database constraints (NFDT-DC)
// and First-Fit Decreasing Time with database constraints (FFDT-DC).
//
// The geometry follows the paper's 2-D strip-packing view: processors on
// the X axis, time on the Y axis; tasks are placed left to right in rows
// forming levels, each level's height set by its slowest task, and the next
// level starting when the previous one completes. The database constraint
// bounds how many tasks of one region may run simultaneously — i.e. share a
// level.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Task is one atomic ⟨cell, region⟩ job: all replicates of one cell of one
// region's statistical design, run as a unit.
type Task struct {
	Region    string
	Cell      int
	Replicate int
	// Nodes is the number of compute nodes the task occupies (the paper
	// categorizes regions as small=2, medium=4, large=6 nodes).
	Nodes int
	// Time is the empirical mean running time t(T[c,r]), in seconds.
	Time float64
}

// Constraints describes the target machine and database bounds.
type Constraints struct {
	// TotalNodes is the width of the strip (allocated compute nodes).
	TotalNodes int
	// DBBound[r] is B(T[r]): the maximum number of region-r tasks that
	// may run simultaneously. Regions absent from the map are unbounded.
	DBBound map[string]int
}

// RegionIndex interns region codes to dense ints in first-seen order and
// resolves each region's DB bound once, so the packers and the cluster
// executor count per-region concurrency in slices rather than string-keyed
// maps.
type RegionIndex struct {
	ids     map[string]int
	dbBound map[string]int
	// Bound[r] is B(T[r]) for interned region r; math.MaxInt when the
	// region is absent from the constraints (unbounded).
	Bound []int
}

// NewRegionIndex returns an empty index over the given DB bounds.
func NewRegionIndex(dbBound map[string]int) *RegionIndex {
	return &RegionIndex{ids: make(map[string]int, len(dbBound)), dbBound: dbBound}
}

// ID returns the dense id of a region code, interning it on first sight.
func (x *RegionIndex) ID(region string) int {
	if r, ok := x.ids[region]; ok {
		return r
	}
	r := len(x.Bound)
	x.ids[region] = r
	bound, bounded := x.dbBound[region]
	if !bounded {
		bound = math.MaxInt
	}
	x.Bound = append(x.Bound, bound)
	return r
}

// Level is one row of the strip: its tasks run concurrently, and the level
// completes when its slowest task does.
type Level struct {
	Tasks     []Task
	UsedNodes int
	Height    float64
	perRegion []int // tasks per interned region; grown on demand
}

// fits reports whether t, of interned region r, can join the level.
func (l *Level) fits(t Task, r int, totalNodes int, x *RegionIndex) bool {
	if l.UsedNodes+t.Nodes > totalNodes {
		return false
	}
	return r >= len(l.perRegion) || l.perRegion[r] < x.Bound[r]
}

// admit books t, of interned region r, on the level. The packers assign
// Tasks afterwards, carved at exact size from one array per schedule.
func (l *Level) admit(t Task, r int) {
	l.UsedNodes += t.Nodes
	if t.Time > l.Height {
		l.Height = t.Time
	}
	if r >= len(l.perRegion) {
		l.perRegion = append(l.perRegion, make([]int, r+1-len(l.perRegion))...)
	}
	l.perRegion[r]++
}

// Schedule is a packed strip.
type Schedule struct {
	Levels     []Level
	TotalNodes int
	// packed is the packer's array the levels' Tasks were carved from, in
	// (level, position) order.
	packed []Task
}

// Flatten returns the tasks in (level, position) order — the submission
// order handed to an executor. While the levels still tile the packer's own
// array, that array is returned as is, shared with the levels: read it, do
// not write it. A schedule built or edited by hand is copied out instead.
func (s *Schedule) Flatten() []Task {
	if s.tilesPacked() {
		return s.packed
	}
	out := make([]Task, 0, s.NumTasks())
	for _, l := range s.Levels {
		out = append(out, l.Tasks...)
	}
	return out
}

// tilesPacked reports whether the levels' Tasks are exactly the consecutive
// windows of packed the packer carved.
func (s *Schedule) tilesPacked() bool {
	at := 0
	for _, l := range s.Levels {
		n := len(l.Tasks)
		if n == 0 || at+n > len(s.packed) || &l.Tasks[0] != &s.packed[at] {
			return false
		}
		at += n
	}
	return at == len(s.packed) && at > 0
}

// Makespan returns the completion time of the last level.
func (s *Schedule) Makespan() float64 {
	total := 0.0
	for _, l := range s.Levels {
		total += l.Height
	}
	return total
}

// Work returns the total node-seconds of useful computation.
func (s *Schedule) Work() float64 {
	w := 0.0
	for _, l := range s.Levels {
		for _, t := range l.Tasks {
			w += t.Time * float64(t.Nodes)
		}
	}
	return w
}

// Utilization returns the paper's empirical efficiency EC: total busy
// node-time divided by (total nodes × makespan).
func (s *Schedule) Utilization() float64 {
	m := s.Makespan()
	if m == 0 || s.TotalNodes == 0 {
		return 0
	}
	return s.Work() / (m * float64(s.TotalNodes))
}

// NumTasks returns the number of packed tasks.
func (s *Schedule) NumTasks() int {
	n := 0
	for _, l := range s.Levels {
		n += len(l.Tasks)
	}
	return n
}

// Validate checks a schedule against the constraints: level widths, the
// per-level DB bound, and that every input task appears exactly once.
func (s *Schedule) Validate(tasks []Task, c Constraints) error {
	count := map[Task]int{}
	for _, t := range tasks {
		count[t]++
	}
	for li, l := range s.Levels {
		width := 0
		perRegion := map[string]int{}
		for _, t := range l.Tasks {
			width += t.Nodes
			perRegion[t.Region]++
			count[t]--
			if count[t] < 0 {
				return fmt.Errorf("sched: level %d contains unknown or duplicated task %+v", li, t)
			}
			if t.Time > l.Height {
				return fmt.Errorf("sched: level %d height %g below task time %g", li, l.Height, t.Time)
			}
		}
		if width > c.TotalNodes {
			return fmt.Errorf("sched: level %d width %d exceeds %d nodes", li, width, c.TotalNodes)
		}
		for r, n := range perRegion {
			if bound, ok := c.DBBound[r]; ok && n > bound {
				return fmt.Errorf("sched: level %d has %d tasks of region %s (bound %d)", li, n, r, bound)
			}
		}
	}
	for t, n := range count {
		if n != 0 {
			return fmt.Errorf("sched: task %+v scheduled %d times", t, 1-n)
		}
	}
	return nil
}

// decreasingOrder returns the permutation that puts the tasks in
// non-increasing time order (ties by region then cell then replicate, then
// input position, so the order is the stable one). The time of a task is
// directly correlated with the size of its region's network, so this orders
// big states first — Step 2 of the paper's heuristic.
//
// It sorts integer keys, not tasks. The bits of a non-negative time (all
// that checkTasks lets through) order like the time; shifted past the sign
// bit, which makes −0 and +0 one key, and complemented, they order it
// descending. The input position fills the low bits. Keys equal above the
// position field — ties, and times apart only in the bits it displaced —
// are re-sorted with the full comparator.
func decreasingOrder(tasks []Task) []uint64 {
	shift := uint(bits.Len(uint(len(tasks))))
	keys := make([]uint64, len(tasks))
	for i := range tasks {
		keys[i] = ^(math.Float64bits(tasks[i].Time)<<1)>>shift<<shift | uint64(i)
	}
	slices.Sort(keys)
	mask := uint64(1)<<shift - 1
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>shift == keys[lo]>>shift {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(ki, kj uint64) int {
				a, b := &tasks[ki&mask], &tasks[kj&mask]
				if c := cmp.Compare(b.Time, a.Time); c != 0 {
					return c
				}
				if c := cmp.Compare(a.Region, b.Region); c != 0 {
					return c
				}
				if c := cmp.Compare(a.Cell, b.Cell); c != 0 {
					return c
				}
				if c := cmp.Compare(a.Replicate, b.Replicate); c != 0 {
					return c
				}
				return cmp.Compare(ki, kj) // the run's keys differ in position only
			})
		}
		lo = hi
	}
	for i := range keys {
		keys[i] &= mask
	}
	return keys
}

// sortDecreasing returns a copy of the tasks in decreasingOrder.
func sortDecreasing(tasks []Task) []Task {
	out := make([]Task, len(tasks))
	for i, j := range decreasingOrder(tasks) {
		out[i] = tasks[j]
	}
	return out
}

// checkTasks rejects tasks that can never be placed.
func checkTasks(tasks []Task, c Constraints) error {
	if c.TotalNodes <= 0 {
		return fmt.Errorf("sched: non-positive node count %d", c.TotalNodes)
	}
	for _, t := range tasks {
		if t.Nodes <= 0 || t.Nodes > c.TotalNodes {
			return fmt.Errorf("sched: task %+v needs %d of %d nodes", t, t.Nodes, c.TotalNodes)
		}
		if !(t.Time >= 0 && t.Time <= math.MaxFloat64) {
			return fmt.Errorf("sched: negative or non-finite task time %+v", t)
		}
		if bound, ok := c.DBBound[t.Region]; ok && bound <= 0 {
			return fmt.Errorf("sched: region %s has non-positive DB bound %d", t.Region, bound)
		}
	}
	return nil
}

// NFDTDC packs with Next-Fit Decreasing Time under database constraints:
// the next task (in non-increasing time) goes on the current level if it
// fits and the database constraint is satisfied; otherwise the current
// level is closed and a new one created. Without the DB constraint this is
// the classical NFDH with worst-case ratio 2.
func NFDTDC(tasks []Task, c Constraints) (*Schedule, error) {
	if err := checkTasks(tasks, c); err != nil {
		return nil, err
	}
	s := &Schedule{TotalNodes: c.TotalNodes}
	if len(tasks) == 0 {
		return s, nil
	}
	s.packed = sortDecreasing(tasks)
	s.Levels = nextFit(s.packed, c)
	return s, nil
}

// nextFit packs tasks in the given order: a task that does not fit the
// current level closes it and opens the next. Levels are consecutive runs
// of ordered, so each Level.Tasks is a capacity-capped window onto it;
// ordered must be the packer's own array.
func nextFit(ordered []Task, c Constraints) []Level {
	var levels []Level
	x := NewRegionIndex(c.DBBound)
	var cur Level
	start := 0
	for i, t := range ordered {
		r := x.ID(t.Region)
		if !cur.fits(t, r, c.TotalNodes, x) && i > start {
			cur.Tasks = ordered[start:i:i]
			levels = append(levels, cur)
			cur, start = Level{}, i
		}
		cur.admit(t, r)
	}
	cur.Tasks = ordered[start:len(ordered):len(ordered)]
	return append(levels, cur)
}

// FFDTDC packs with First-Fit Decreasing Time under database constraints:
// each task (in non-increasing time) is placed on the first existing level
// where it fits and the database constraint holds; a new level opens only
// when no level can accommodate it. Without the DB constraint this is FFDH
// with worst-case ratio 17/10.
func FFDTDC(tasks []Task, c Constraints) (*Schedule, error) {
	if err := checkTasks(tasks, c); err != nil {
		return nil, err
	}
	s := &Schedule{TotalNodes: c.TotalNodes}
	// Pass 1 places every task on counters alone, recording its level;
	// pass 2 carves each level's Tasks, at its exact size, out of one
	// array and fills them in placement order.
	order := decreasingOrder(tasks)
	x := NewRegionIndex(c.DBBound)
	levelOf := make([]int32, len(order))
	var sizes []int
	// Levels below open cannot take even the smallest task, and never will.
	open, smallest := 0, c.TotalNodes
	for i := range tasks {
		smallest = min(smallest, tasks[i].Nodes)
	}
	for i, j := range order {
		t := tasks[j]
		r := x.ID(t.Region)
		li := open
		for li < len(s.Levels) && !s.Levels[li].fits(t, r, c.TotalNodes, x) {
			li++
		}
		if li == len(s.Levels) {
			s.Levels = append(s.Levels, Level{})
			sizes = append(sizes, 0)
		}
		s.Levels[li].admit(t, r)
		sizes[li]++
		levelOf[i] = int32(li)
		for open < len(s.Levels) && s.Levels[open].UsedNodes+smallest > c.TotalNodes {
			open++
		}
	}
	s.packed = make([]Task, len(order))
	start := 0
	for li, size := range sizes {
		s.Levels[li].Tasks = s.packed[start : start : start+size]
		start += size
	}
	for i, j := range order {
		l := &s.Levels[levelOf[i]]
		l.Tasks = append(l.Tasks, tasks[j])
	}
	return s, nil
}

// FIFO packs tasks in their given order with next-fit levels and no
// decreasing-time sort — the naive baseline for the scheduler ablation.
func FIFO(tasks []Task, c Constraints) (*Schedule, error) {
	if err := checkTasks(tasks, c); err != nil {
		return nil, err
	}
	s := &Schedule{TotalNodes: c.TotalNodes}
	if len(tasks) == 0 {
		return s, nil
	}
	s.packed = slices.Clone(tasks)
	s.Levels = nextFit(s.packed, c)
	return s, nil
}
