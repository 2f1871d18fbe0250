package sched

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
)

// The packers as they were before regions were interned and the sort left
// reflection behind: sort.SliceStable over the tasks, a map[string]int per
// level. Kept as the oracle the production packers must match level for
// level.

func referenceSortDecreasing(tasks []Task) []Task {
	out := append([]Task(nil), tasks...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		if out[i].Region != out[j].Region {
			return out[i].Region < out[j].Region
		}
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Replicate < out[j].Replicate
	})
	return out
}

type referenceLevel struct {
	Tasks     []Task
	UsedNodes int
	Height    float64
	perRegion map[string]int
}

func (l *referenceLevel) fits(t Task, c Constraints) bool {
	if l.UsedNodes+t.Nodes > c.TotalNodes {
		return false
	}
	if bound, ok := c.DBBound[t.Region]; ok && l.perRegion[t.Region] >= bound {
		return false
	}
	return true
}

func (l *referenceLevel) add(t Task) {
	l.Tasks = append(l.Tasks, t)
	l.UsedNodes += t.Nodes
	if t.Time > l.Height {
		l.Height = t.Time
	}
	if l.perRegion == nil {
		l.perRegion = map[string]int{}
	}
	l.perRegion[t.Region]++
}

func referenceFirstFit(ordered []Task, c Constraints) []*referenceLevel {
	var levels []*referenceLevel
	for _, t := range ordered {
		placed := false
		for _, l := range levels {
			if l.fits(t, c) {
				l.add(t)
				placed = true
				break
			}
		}
		if !placed {
			l := &referenceLevel{}
			l.add(t)
			levels = append(levels, l)
		}
	}
	return levels
}

func referenceNextFit(ordered []Task, c Constraints) []*referenceLevel {
	var levels []*referenceLevel
	cur := &referenceLevel{}
	for _, t := range ordered {
		if !cur.fits(t, c) && len(cur.Tasks) > 0 {
			levels = append(levels, cur)
			cur = &referenceLevel{}
		}
		cur.add(t)
	}
	if len(cur.Tasks) > 0 {
		levels = append(levels, cur)
	}
	return levels
}

func assertLevelsMatch(t *testing.T, name string, s *Schedule, want []*referenceLevel) {
	t.Helper()
	if len(s.Levels) != len(want) {
		t.Fatalf("%s: %d levels, reference %d", name, len(s.Levels), len(want))
	}
	for i, l := range s.Levels {
		w := want[i]
		if l.UsedNodes != w.UsedNodes || l.Height != w.Height || !reflect.DeepEqual(l.Tasks, w.Tasks) {
			t.Fatalf("%s: level %d diverges from the reference packing", name, i)
		}
	}
}

// The three packers place every task exactly where the map-and-reflection
// versions did: on the Table I nights, and on small instances dense with
// equal times, duplicate tasks and absent (unbounded) regions, where the
// stable tie order is what is being held.
func TestPackersMatchReference(t *testing.T) {
	type instance struct {
		name  string
		tasks []Task
		c     Constraints
	}
	instances := []instance{
		{"12x15/bound16", Workload{Cells: 12, Replicates: 15, Time: DefaultTimeModel(), MaxInterventionFactor: 4}.Tasks(stats.NewRNG(1)), bridgesConstraints(16)},
		{"300x1/bound3", Workload{Cells: 300, Replicates: 1, Time: DefaultTimeModel(), MaxInterventionFactor: 1.4}.Tasks(stats.NewRNG(2)), bridgesConstraints(3)},
		{"grouped/unbounded", nightlyTasks(t, 3, 12, 15), Constraints{TotalNodes: 720}},
	}
	r := stats.NewRNG(7)
	regions := []string{"CA", "VA", "WY", "TX", "RI"}
	for k := 0; k < 40; k++ {
		n := 1 + r.Intn(150)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Region: regions[r.Intn(len(regions))], Cell: r.Intn(4), Replicate: r.Intn(2),
				Nodes: 1 + r.Intn(6), Time: float64(10 * r.Intn(5))}
		}
		instances = append(instances, instance{"ties", tasks,
			Constraints{TotalNodes: 6 + r.Intn(12), DBBound: map[string]int{"CA": 1 + r.Intn(3), "VA": 1, "WY": 2}}})
	}
	for _, in := range instances {
		if got, want := sortDecreasing(in.tasks), referenceSortDecreasing(in.tasks); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sortDecreasing diverges from the stable reference order", in.name)
		}
		ff, err := FFDTDC(in.tasks, in.c)
		if err != nil {
			t.Fatal(err)
		}
		assertLevelsMatch(t, in.name+"/FFDT-DC", ff, referenceFirstFit(referenceSortDecreasing(in.tasks), in.c))
		nf, err := NFDTDC(in.tasks, in.c)
		if err != nil {
			t.Fatal(err)
		}
		assertLevelsMatch(t, in.name+"/NFDT-DC", nf, referenceNextFit(referenceSortDecreasing(in.tasks), in.c))
		fifo, err := FIFO(in.tasks, in.c)
		if err != nil {
			t.Fatal(err)
		}
		assertLevelsMatch(t, in.name+"/FIFO", fifo, referenceNextFit(in.tasks, in.c))
	}
}

// Flatten hands out the packer's own array only while the levels still tile
// it; a hand-edited schedule is copied out, level by level.
func TestFlattenSharesPackedUntilEdited(t *testing.T) {
	tasks := Workload{Cells: 3, Replicates: 2, Time: DefaultTimeModel(), MaxInterventionFactor: 4}.Tasks(stats.NewRNG(5))
	c := bridgesConstraints(2)
	for name, pack := range map[string]func([]Task, Constraints) (*Schedule, error){"FFDT-DC": FFDTDC, "NFDT-DC": NFDTDC, "FIFO": FIFO} {
		s, err := pack(tasks, c)
		if err != nil {
			t.Fatal(err)
		}
		var want []Task
		for _, l := range s.Levels {
			want = append(want, l.Tasks...)
		}
		flat := s.Flatten()
		if !reflect.DeepEqual(flat, want) {
			t.Fatalf("%s: Flatten is not the (level, position) order", name)
		}
		if &flat[0] != &s.Levels[0].Tasks[0] {
			t.Fatalf("%s: Flatten copied a schedule the levels still tile", name)
		}
		// Appending to a level reallocates it (its capacity is capped), so
		// the neighbour level is untouched and Flatten falls back to copying.
		last := len(s.Levels) - 1
		s.Levels[0].Tasks = append(s.Levels[0].Tasks, tasks[0])
		edited := s.Flatten()
		if len(edited) != len(tasks)+1 || edited[len(s.Levels[0].Tasks)-1] != tasks[0] {
			t.Fatalf("%s: edited schedule flattened wrongly", name)
		}
		if !reflect.DeepEqual(flat, want) || !reflect.DeepEqual(s.Levels[last].Tasks, want[len(want)-len(s.Levels[last].Tasks):]) {
			t.Fatalf("%s: editing one level disturbed the shared array", name)
		}
	}
}
