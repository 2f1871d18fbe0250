package output

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/synthpop"
)

func testNet(t testing.TB) *synthpop.Network {
	t.Helper()
	va, err := synthpop.StateByCode("VA")
	if err != nil {
		t.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(404)
	cfg.Scale = 10000
	cfg.MinPersons = 400
	net, err := synthpop.Generate(va, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func runLogged(t testing.TB, net *synthpop.Network, days int) (*TransitionLog, *CountyAggregator, *epihiper.Result) {
	t.Helper()
	log := &TransitionLog{}
	agg := NewCountyAggregator(net, days)
	byCounty := map[int32]int{}
	for _, p := range net.Persons {
		byCounty[p.CountyFIPS]++
	}
	var best int32
	bestN := 0
	for c, n := range byCounty {
		if n > bestN {
			best, bestN = c, n
		}
	}
	sim, err := epihiper.New(epihiper.Config{
		Model: disease.COVID19(), Network: net, Days: days,
		Parallelism: 2, Seed: 77,
		Seeds:    []epihiper.Seeding{{CountyFIPS: best, Day: 0, Count: 5}},
		Recorder: epihiper.MultiRecorder{log, agg},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return log, agg, res
}

func TestTransitionLogMatchesResult(t *testing.T) {
	net := testNet(t)
	log, _, res := runLogged(t, net, 60)
	if len(log.Entries) == 0 {
		t.Fatal("empty log")
	}
	exposures := 0
	for _, e := range log.Entries {
		if e.To == disease.Exposed && e.Infector != epihiper.NoInfector {
			exposures++
		}
	}
	if int64(exposures) != res.TotalInfections {
		t.Fatalf("log exposures %d vs result %d", exposures, res.TotalInfections)
	}
}

func TestTransitionLogCSV(t *testing.T) {
	net := testNet(t)
	log, _, _ := runLogged(t, net, 30)
	var buf bytes.Buffer
	if err := log.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(log.Entries)+1 {
		t.Fatalf("%d lines want %d", len(lines), len(log.Entries)+1)
	}
	if !strings.HasPrefix(lines[0], "tick,pid,exit_state,contact_pid") {
		t.Fatalf("bad header %q", lines[0])
	}
	if log.RawBytes() <= 0 {
		t.Fatal("raw byte estimate non-positive")
	}
}

func TestDendogramStructure(t *testing.T) {
	net := testNet(t)
	log, _, res := runLogged(t, net, 60)
	d := BuildDendogram(log, disease.Exposed)
	if len(d.Roots) != 5 {
		t.Fatalf("%d roots want 5 seeds", len(d.Roots))
	}
	if int64(d.Size()) != res.TotalInfections+5 {
		t.Fatalf("dendogram size %d want %d", d.Size(), res.TotalInfections+5)
	}
	// Every infected person reachable from a root exactly once.
	visited := map[int32]bool{}
	var walk func(pid int32)
	walk = func(pid int32) {
		if visited[pid] {
			t.Fatalf("person %d visited twice (cycle)", pid)
		}
		visited[pid] = true
		for _, c := range d.Children[pid] {
			walk(c)
		}
	}
	total := 0
	for _, r := range d.Roots {
		total += d.SubtreeSize(r)
		walk(r)
	}
	if total != d.Size() {
		t.Fatalf("subtree sizes %d vs size %d", total, d.Size())
	}
	if res.TotalInfections > 20 && d.Depth() < 3 {
		t.Fatalf("depth %d implausibly shallow for %d infections", d.Depth(), res.TotalInfections)
	}
	// Children are infected after their parents.
	for parent, kids := range d.Children {
		pt, ok := d.InfectedAt[parent]
		if !ok {
			continue // seed parents are in InfectedAt too; defensive
		}
		for _, k := range kids {
			if d.InfectedAt[k] < pt {
				t.Fatalf("child %d infected before parent %d", k, parent)
			}
		}
	}
}

func TestSecondaryCases(t *testing.T) {
	net := testNet(t)
	log, _, res := runLogged(t, net, 60)
	d := BuildDendogram(log, disease.Exposed)
	sc := d.SecondaryCases()
	if len(sc) != d.Size() {
		t.Fatalf("secondary cases length %d want %d", len(sc), d.Size())
	}
	sum := 0
	for _, c := range sc {
		sum += c
	}
	if int64(sum) != res.TotalInfections {
		t.Fatalf("offspring sum %d want %d", sum, res.TotalInfections)
	}
}

func TestCountyAggregatorConsistency(t *testing.T) {
	net := testNet(t)
	_, agg, res := runLogged(t, net, 60)
	if len(agg.Counties()) == 0 {
		t.Fatal("no counties")
	}
	// County daily sums equal state daily, equal result daily.
	for _, st := range []disease.State{disease.Exposed, disease.Symptomatic, disease.Dead} {
		stateDaily := agg.StateDaily(st)
		for d := 0; d < 60; d++ {
			var sum int32
			for _, c := range agg.Counties() {
				if s := agg.Daily(c, st); s != nil {
					sum += s[d]
				}
			}
			if sum != stateDaily[d] {
				t.Fatalf("state %v day %d: county sum %d vs state %d", st, d, sum, stateDaily[d])
			}
			if stateDaily[d] != res.Daily[d][st] {
				t.Fatalf("state %v day %d: agg %d vs result %d", st, d, stateDaily[d], res.Daily[d][st])
			}
		}
	}
}

// TestCountyAggregatorMatchesLogRecount recounts the aggregate from the raw
// transition log of the same run, the plain way — a map keyed by the person's
// county and the entered state — and requires the aggregator's series (dense
// table, registered on first use) and its county list to be exactly that.
func TestCountyAggregatorMatchesLogRecount(t *testing.T) {
	net := testNet(t)
	const days = 60
	log, agg, _ := runLogged(t, net, days)
	want := map[CountKey][]int32{}
	for _, tr := range log.Entries {
		key := CountKey{CountyFIPS: net.Persons[tr.PID].CountyFIPS, State: tr.To}
		if want[key] == nil {
			want[key] = make([]int32, days)
		}
		want[key][tr.Tick]++
	}
	if len(want) < 20 {
		t.Fatalf("only %d series; the run is too quiet to test anything", len(want))
	}
	if !reflect.DeepEqual(agg.series, want) {
		t.Errorf("aggregator holds %d series, the log recount %d, or their contents differ", len(agg.series), len(want))
	}
	seen := map[int32]bool{}
	var counties []int32
	for _, p := range net.Persons {
		if !seen[p.CountyFIPS] {
			seen[p.CountyFIPS] = true
			counties = append(counties, p.CountyFIPS)
		}
	}
	slices.Sort(counties)
	if !slices.Equal(agg.Counties(), counties) {
		t.Errorf("counties %v, want %v", agg.Counties(), counties)
	}
}

func TestCumulativeMonotone(t *testing.T) {
	net := testNet(t)
	_, agg, _ := runLogged(t, net, 60)
	cum := agg.StateCumulative(disease.Exposed)
	for d := 1; d < len(cum); d++ {
		if cum[d] < cum[d-1] {
			t.Fatal("cumulative decreased")
		}
	}
	conf := agg.StateConfirmedCumulative()
	for d := 1; d < len(conf); d++ {
		if conf[d] < conf[d-1] {
			t.Fatal("confirmed cumulative decreased")
		}
	}
	if conf[len(conf)-1] == 0 {
		t.Fatal("no confirmed cases despite epidemic")
	}
	// County cumulative matches its daily sum.
	c := agg.Counties()[0]
	cc := agg.cumulative(c, disease.Exposed)
	var acc float64
	if s := agg.Daily(c, disease.Exposed); s != nil {
		for d, v := range s {
			acc += float64(v)
			if cc[d] != acc {
				t.Fatalf("county cumulative mismatch at day %d", d)
			}
		}
	}
}

func TestConfirmedCasesCombinesAttendedStates(t *testing.T) {
	net := testNet(t)
	_, agg, _ := runLogged(t, net, 60)
	var total int64
	for _, c := range agg.Counties() {
		for _, v := range agg.ConfirmedCases(c) {
			total += int64(v)
		}
	}
	var want int64
	for _, st := range []disease.State{disease.Attended, disease.AttendedH, disease.AttendedD} {
		for _, v := range agg.StateDaily(st) {
			want += int64(v)
		}
	}
	if total != want {
		t.Fatalf("confirmed %d want %d", total, want)
	}
}

func TestSummaryCSVAndBytes(t *testing.T) {
	net := testNet(t)
	_, agg, _ := runLogged(t, net, 30)
	var buf bytes.Buffer
	if err := agg.WriteSummaryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "county_fips,day,state,new_count") {
		t.Fatal("bad summary header")
	}
	if agg.SummaryBytes() <= 0 {
		t.Fatal("summary bytes non-positive")
	}
}

func TestAggregatorIgnoresOutOfRangeTicks(t *testing.T) {
	net := testNet(t)
	agg := NewCountyAggregator(net, 10)
	agg.Record(-1, 0, disease.Susceptible, disease.Exposed, epihiper.NoInfector)
	agg.Record(10, 0, disease.Susceptible, disease.Exposed, epihiper.NoInfector)
	if s := agg.StateDaily(disease.Exposed); s[0] != 0 {
		t.Fatal("out-of-range tick recorded")
	}
}

func TestDendogramReinfectionKeepsFirstEdge(t *testing.T) {
	log := &TransitionLog{}
	log.Record(1, 10, disease.Susceptible, disease.Exposed, 5)
	log.Record(9, 10, disease.RxFailure, disease.Exposed, 7)
	d := BuildDendogram(log, disease.Exposed)
	if d.Size() != 1 {
		t.Fatalf("size %d want 1", d.Size())
	}
	if len(d.Children[5]) != 1 || len(d.Children[7]) != 0 {
		t.Fatal("reinfection re-rooted the tree")
	}
	if d.InfectedAt[10] != 1 {
		t.Fatal("first infection tick lost")
	}
}

func TestMultiRecorderFanOut(t *testing.T) {
	a, b := &TransitionLog{}, &TransitionLog{}
	m := epihiper.MultiRecorder{a, b}
	m.Record(3, 1, disease.Susceptible, disease.Exposed, 0)
	if len(a.Entries) != 1 || len(b.Entries) != 1 {
		t.Fatal("multirecorder did not fan out")
	}
}

// cumulative returns the cumulative series for a county and state.
func (a *CountyAggregator) cumulative(county int32, st disease.State) []float64 {
	out := make([]float64, a.days)
	var acc int64
	daily := a.Daily(county, st)
	for d := 0; d < a.days; d++ {
		if daily != nil {
			acc += int64(daily[d])
		}
		out[d] = float64(acc)
	}
	return out
}
