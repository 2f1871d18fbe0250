package sched

import (
	"math"
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

// sameTasks compares task lists element by element, and also tells −0
// from +0, which compare equal as floats.
func sameTasks(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || math.Signbit(a[i].Time) != math.Signbit(b[i].Time) {
			return false
		}
	}
	return true
}

func assertLevelsMatch(t testing.TB, name string, s *Schedule, want []*referenceLevel) {
	t.Helper()
	if len(s.Levels) != len(want) {
		t.Fatalf("%s: %d levels, reference %d", name, len(s.Levels), len(want))
	}
	for i, l := range s.Levels {
		w := want[i]
		if l.UsedNodes != w.UsedNodes || l.Height != w.Height || !sameTasks(l.Tasks, w.Tasks) {
			t.Fatalf("%s: level %d diverges from the reference packing", name, i)
		}
	}
}

// assertPackersMatchReference holds the three packers to the reference
// order and packings on one instance.
func assertPackersMatchReference(t testing.TB, name string, tasks []Task, c Constraints) {
	t.Helper()
	ordered := referenceSortDecreasing(tasks)
	if !sameTasks(sortDecreasing(tasks), ordered) {
		t.Fatalf("%s: sortDecreasing diverges from the stable reference order", name)
	}
	ff, err := FFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	assertLevelsMatch(t, name+"/FFDT-DC", ff, referenceFirstFit(ordered, c))
	nf, err := NFDTDC(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	assertLevelsMatch(t, name+"/NFDT-DC", nf, referenceNextFit(ordered, c))
	fifo, err := FIFO(tasks, c)
	if err != nil {
		t.Fatal(err)
	}
	assertLevelsMatch(t, name+"/FIFO", fifo, referenceNextFit(tasks, c))
}

// ulpsAbove returns the float k representable steps above x.
func ulpsAbove(x float64, k int) float64 {
	return math.Float64frombits(math.Float64bits(x) + uint64(k))
}

// The three packers place every task exactly where the map-and-reflection
// versions did: on the Table I nights, and on small instances dense with
// equal times, duplicate tasks and absent (unbounded) regions, where the
// stable tie order is what is being held. Three instances aim at the
// integer sort keys: −0 beside +0 (equal times, different bits), times a
// few representable steps apart (they collide once the position takes the
// low key bits), and more than 65 536 tasks, so the position field is
// wider than 16 bits.
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
	mk := func(n int, time func() float64) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Region: regions[r.Intn(len(regions))], Cell: r.Intn(3), Replicate: r.Intn(2),
				Nodes: 1 + r.Intn(6), Time: time()}
		}
		return tasks
	}
	bounded := Constraints{TotalNodes: 12, DBBound: map[string]int{"CA": 2, "VA": 1, "WY": 3}}
	instances = append(instances,
		instance{"signed-zeros", mk(300, func() float64 {
			return []float64{0, math.Copysign(0, -1), 5, 5e-324}[r.Intn(4)]
		}), bounded},
		instance{"last-mantissa-bits", mk(400, func() float64 { return ulpsAbove(100, r.Intn(600)) }), bounded},
		instance{"wide-positions", mk(70_000, func() float64 {
			if r.Intn(2) == 0 {
				return float64(r.Intn(50))
			}
			return ulpsAbove(1e4, r.Intn(1<<18))
		}), Constraints{TotalNodes: 4000}})
	for _, in := range instances {
		assertPackersMatchReference(t, in.name, in.tasks, in.c)
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

// fuzzTimes is the palette FuzzPackersMatchReference draws task times from:
// ties, both zeros, the smallest subnormal, huge and neighbouring values,
// and the non-finite times every packer must refuse.
var fuzzTimes = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-300, 1, ulpsAbove(1, 1), ulpsAbove(1, 2), 30, 30, 450.5,
	ulpsAbove(450.5, 3), 1e300, math.MaxFloat64, math.NaN(), math.Inf(1),
}

var fuzzRegions = []string{"CA", "VA", "WY", "TX", "RI"}

// packerTasksFromBytes decodes a task set, four bytes per task: region,
// cell and replicate, node count, and a time from the palette or, past its
// end, a small integer (more ties).
func packerTasksFromBytes(data []byte, totalNodes int) []Task {
	var tasks []Task
	for i := 0; i+3 < len(data) && len(tasks) < 400; i += 4 {
		time := float64(data[i+3] % 8)
		if k := int(data[i+3]) % 32; k < len(fuzzTimes) {
			time = fuzzTimes[k]
		}
		tasks = append(tasks, Task{Region: fuzzRegions[int(data[i])%len(fuzzRegions)], Cell: int(data[i+1] % 4),
			Replicate: int(data[i+1]/4) % 3, Nodes: 1 + int(data[i+2])%totalNodes, Time: time})
	}
	return tasks
}

// The FFDT-DC, NFDT-DC and FIFO levels equal the reference packers' on
// arbitrary task sets and bounds; a set with a non-finite time is refused.
func FuzzPackersMatchReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 3, 1, 0, 1, 2, 0, 2, 0, 1, 7}, uint8(6), []byte{2, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 4, 1, 1, 1, 4, 1, 0}, uint8(3), []byte{1, 1, 1, 1, 1})
	f.Add([]byte{2, 3, 4, 11, 3, 3, 4, 12, 2, 7, 1, 5, 4, 9, 9, 6}, uint8(9), []byte{})
	f.Add([]byte{1, 0, 0, 13, 1, 0, 0, 3}, uint8(4), []byte{3})
	f.Add([]byte{4, 2, 2, 14, 0, 0, 5, 9}, uint8(7), []byte{0, 4, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte, nodes uint8, bounds []byte) {
		totalNodes := 1 + int(nodes)%24
		tasks := packerTasksFromBytes(data, totalNodes)
		// Region k takes bound bounds[k] % 5; zero leaves it absent, unbounded.
		c := Constraints{TotalNodes: totalNodes, DBBound: map[string]int{}}
		for k, b := range bounds {
			if k < len(fuzzRegions) && b%5 != 0 {
				c.DBBound[fuzzRegions[k]] = int(b % 5)
			}
		}
		for _, task := range tasks {
			if math.IsNaN(task.Time) || math.IsInf(task.Time, 0) {
				for name, pack := range map[string]func([]Task, Constraints) (*Schedule, error){"FFDT-DC": FFDTDC, "NFDT-DC": NFDTDC, "FIFO": FIFO} {
					if _, err := pack(tasks, c); err == nil {
						t.Fatalf("%s accepted task time %v", name, task.Time)
					}
				}
				return
			}
		}
		assertPackersMatchReference(t, "fuzz", tasks, c)
	})
}
