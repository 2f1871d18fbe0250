package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{39, 0.75, false}, {40, 0.75, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(s, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestClosedLoopBooksFailures(t *testing.T) {
	refused := errors.New("status 429: queue full")
	st := closedLoop(context.Background(), 2, 1, 100, time.Time{}, func(_ context.Context, i int) error {
		if i%10 == 3 {
			return refused
		}
		return nil
	}, nil)
	if st.attempted != 100 || st.failed != 10 {
		t.Fatalf("attempted %d failed %d, want 100 and 10", st.attempted, st.failed)
	}
	if got := len(st.succeeded()); got != 90 {
		t.Errorf("%d latencies, want 90: a failed op has none", got)
	}
	if len(st.errs) != keptErrors || !strings.Contains(st.errs[0], "429") {
		t.Errorf("kept errors %v", st.errs)
	}
}

func TestClosedLoopStrideAndDeadline(t *testing.T) {
	// With stride 2 one client runs ops 2k and 2k+1 back to back.
	var order [8]int
	pos := 0
	closedLoop(context.Background(), 1, 2, len(order), time.Time{}, func(_ context.Context, i int) error {
		order[pos] = i
		pos++
		return nil
	}, nil)
	for i, got := range order {
		if got != i {
			t.Fatalf("op order %v", order)
		}
	}
	// A passed deadline hands out nothing.
	st := closedLoop(context.Background(), 2, 1, 100, time.Now().Add(-time.Second), func(context.Context, int) error { return nil }, nil)
	if st.attempted != 0 {
		t.Errorf("attempted %d ops after the deadline", st.attempted)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},  // nested
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of root
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 20}, // grandchild
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 38},  // inside a∪b: adds nothing
	}
	self := selfTimes(spans)
	// root: 100 − ([10,60] ∪ [90,100]) = 100 − 60 = 40.
	for id, want := range map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10, 6: 3} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerJSONL(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 7)
	tr.child("phase", root, 7, 0, time.Millisecond)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"parent":1`) || !strings.Contains(lines[1], `"op":7`) {
		t.Errorf("trace lines %q", lines)
	}
}

func TestParsePromTextIsLenient(t *testing.T) {
	text := `# HELP epi_scenario_submitted_total jobs
# TYPE epi_scenario_submitted_total counter
epi_scenario_submitted_total 42
epi_fidelity_served_total{tier="emulator"} 7
epi_scenario_latency_seconds_bucket{workflow="what if",le="+Inf"} 3 1700000000
garbage line without a value
epi_bad NaNish

epi_ratio 0.25
`
	m := parsePromText(strings.NewReader(text))
	for name, want := range map[string]float64{
		"epi_scenario_submitted_total":                                      42,
		`epi_fidelity_served_total{tier="emulator"}`:                        7,
		`epi_scenario_latency_seconds_bucket{workflow="what if",le="+Inf"}`: 3,
		"epi_ratio": 0.25,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if _, ok := m["epi_missing_total"]; ok {
		t.Error("an absent series must be absent, not an error or a zero entry")
	}
	if len(m) != 4 {
		t.Errorf("parsed %d series, want 4: %v", len(m), m)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "1234 (epi serve) x) S 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 10 18446744073709551615"
	d, err := parseProcStatCPU(line)
	if err != nil || d != 3*time.Second {
		t.Errorf("cpu = %v, %v; want 3s", d, err)
	}
	if _, err := parseProcStatCPU("nonsense"); err == nil {
		t.Error("malformed line accepted")
	}
}

// bodies renders the first n requests of a stream.
func bodies(n int, req func(i int) request) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		r := req(i)
		out[i] = append([]byte(r.path()+" "), r.body()...)
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	streams := map[string]func(seed uint64) func(int) request{
		"serve-cold":    func(s uint64) func(int) request { return func(i int) request { return coldRequest(s, i) } },
		"serve-hot":     func(s uint64) func(int) request { return newHotPlan(s).request },
		"whatif-branch": func(s uint64) func(int) request { return func(i int) request { return whatIfRequest(s, i) } },
	}
	for name, mk := range streams {
		a, b, c := bodies(300, mk(1)), bodies(300, mk(1)), bodies(300, mk(2))
		same, differ := true, false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differ = differ || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: the same seed gave different request bodies", name)
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 gave the same request bodies", name)
		}
	}
	if nightConfig(1, 7) != nightConfig(1, 7) || nightConfig(1, 7).Seed == nightConfig(2, 7).Seed {
		t.Error("night configs are not a function of the seed")
	}
}

func TestHotPlanShape(t *testing.T) {
	p := newHotPlan(1)
	if len(p.train.spec.Configs) != hotDesignPoints || len(p.catalogue) != hotCatalogue {
		t.Fatalf("design %d catalogue %d", len(p.train.spec.Configs), len(p.catalogue))
	}
	// Fresh configurations stay inside the region the design points span, or
	// the router would call them out of region.
	var lo, hi [4]float64
	for j, c := range p.train.spec.Configs {
		th := [4]float64{c.TAU, c.SYMP, c.SHCompliance, c.VHICompliance}
		for k := range th {
			if j == 0 || th[k] < lo[k] {
				lo[k] = th[k]
			}
			if j == 0 || th[k] > hi[k] {
				hi[k] = th[k]
			}
		}
	}
	for i := 0; i < 1000; i++ {
		c := p.inBox(streamHotFresh, i)
		th := [4]float64{c.TAU, c.SYMP, c.SHCompliance, c.VHICompliance}
		for k := range th {
			if th[k] < lo[k] || th[k] > hi[k] {
				t.Fatalf("draw %d: parameter %d = %v outside [%v, %v]", i, k, th[k], lo[k], hi[k])
			}
		}
	}
	// The mix is 60/28/10/2.
	count := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		count[p.request(i).class]++
	}
	for class, want := range map[string]float64{"hit": 0.60, "auto": 0.28, "metapop": 0.10, "abm": 0.02} {
		if got := float64(count[class]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("class %s share %.3f, want %.2f", class, got, want)
		}
	}
	// Pair members share a configuration and differ in stack.
	a, b := whatIfRequest(1, 10), whatIfRequest(1, 11)
	if a.spec.Configs[0] != b.spec.Configs[0] || a.spec.WhatIfs[0].Name == b.spec.WhatIfs[0].Name {
		t.Error("what-if ops 2k and 2k+1 must share a configuration and differ in stack")
	}
}

func TestBodySumIgnoresWallClock(t *testing.T) {
	a := []byte("{\n  \"hash\": \"x\",\n  \"elapsed_seconds\": 0.123,\n  \"tier\": \"abm\"\n}\n")
	b := []byte("{\n  \"hash\": \"x\",\n  \"elapsed_seconds\": 4.5,\n  \"tier\": \"abm\"\n}\n")
	c := []byte("{\n  \"hash\": \"y\",\n  \"elapsed_seconds\": 0.123,\n  \"tier\": \"abm\"\n}\n")
	if bodySum(a) != bodySum(b) {
		t.Error("bodies differing only in elapsed_seconds must sum equal")
	}
	if bodySum(a) == bodySum(c) {
		t.Error("bodies differing in content must sum apart")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three runs = %v, want the range over the median", got)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// metrics.go to the same names and units, and every workload to its entry.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj, err := readBenchmarkJSON(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, metrics.go %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if bj.EndToEnd[i].Name != d.Name || bj.EndToEnd[i].Unit != d.Unit {
			t.Errorf("end-to-end %d: %v in BENCHMARK.json, %v in metrics.go", i, bj.EndToEnd[i], d)
		}
	}
	for i, d := range perLayer {
		if bj.PerLayer[i].Name != d.Name || bj.PerLayer[i].Unit != d.Unit {
			t.Errorf("per-layer %d: %v in BENCHMARK.json, %v in metrics.go", i, bj.PerLayer[i], d)
		}
	}
	ws := workloads(1)
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bj.Workloads[i].Name, w.name)
		}
	}
}
