// Package output handles the simulator's result streams: the raw
// individual-level transition log ("each line ... includes the tick of the
// transition event, the identifier of the person, their exit state, and the
// identifier of the person causing the state transition"), the dendograms
// (transmission trees rooted at initial infections), and the aggregation of
// individual-level output to county/state daily time series — the summary
// data that is transferred back to the home cluster.
package output

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/synthpop"
)

// Transition is one line of the raw EpiHiper output.
type Transition struct {
	Tick     int32
	PID      int32
	From, To disease.State
	Infector int32 // epihiper.NoInfector when not a transmission
}

// TransitionLog is a Recorder that retains every transition in order.
type TransitionLog struct {
	Entries []Transition
}

// Record implements epihiper.Recorder.
func (l *TransitionLog) Record(tick int, pid int32, from, to disease.State, infector int32) {
	l.Entries = append(l.Entries, Transition{Tick: int32(tick), PID: pid, From: from, To: to, Infector: infector})
}

// WriteCSV writes the log in the paper's raw-output schema.
func (l *TransitionLog) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "tick,pid,exit_state,contact_pid"); err != nil {
		return err
	}
	for _, t := range l.Entries {
		if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d\n", t.Tick, t.PID, t.To, t.Infector); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RawBytesPerTransition is the estimated serialized size of one line of the
// raw output, feeding the Table I raw-output accounting.
const RawBytesPerTransition = 24

// RawBytes estimates the serialized size of the log.
func (l *TransitionLog) RawBytes() int64 { return int64(len(l.Entries)) * RawBytesPerTransition }

// Dendogram is the forest of transmission trees rooted at initial
// infections (Appendix A's disease outcome).
type Dendogram struct {
	// Children maps an infector to the persons they infected, in
	// infection order.
	Children map[int32][]int32
	// Roots are persons infected with no recorded infector (seeds).
	Roots []int32
	// InfectedAt maps each infected person to their exposure tick.
	InfectedAt map[int32]int32
}

// BuildDendogram extracts the transmission forest from a transition log.
func BuildDendogram(l *TransitionLog, exposedState disease.State) *Dendogram {
	d := &Dendogram{Children: map[int32][]int32{}, InfectedAt: map[int32]int32{}}
	for _, t := range l.Entries {
		if t.To != exposedState {
			continue
		}
		if _, dup := d.InfectedAt[t.PID]; dup {
			// Reinfection (RxFailure path): keep the first exposure as
			// the tree edge; later exposures are not re-rooted.
			continue
		}
		d.InfectedAt[t.PID] = t.Tick
		if t.Infector == epihiper.NoInfector {
			d.Roots = append(d.Roots, t.PID)
		} else {
			d.Children[t.Infector] = append(d.Children[t.Infector], t.PID)
		}
	}
	return d
}

// Size returns the total number of infected persons in the forest.
func (d *Dendogram) Size() int { return len(d.InfectedAt) }

// SubtreeSize returns the number of infections caused directly or
// transitively by the given person, including the person.
func (d *Dendogram) SubtreeSize(pid int32) int {
	size := 1
	for _, c := range d.Children[pid] {
		size += d.SubtreeSize(c)
	}
	return size
}

// Depth returns the longest transmission chain length in the forest
// (a forest of only roots has depth 1).
func (d *Dendogram) Depth() int {
	var depth func(pid int32) int
	depth = func(pid int32) int {
		best := 0
		for _, c := range d.Children[pid] {
			if dd := depth(c); dd > best {
				best = dd
			}
		}
		return best + 1
	}
	max := 0
	for _, r := range d.Roots {
		if dd := depth(r); dd > max {
			max = dd
		}
	}
	return max
}

// SecondaryCases returns the per-infector offspring counts (the empirical
// reproduction-number distribution).
func (d *Dendogram) SecondaryCases() []int {
	out := make([]int, 0, len(d.InfectedAt))
	for pid := range d.InfectedAt {
		out = append(out, len(d.Children[pid]))
	}
	sort.Ints(out)
	return out
}

// CountKey identifies one county-level daily count series.
type CountKey struct {
	CountyFIPS int32
	State      disease.State
}

// CountyAggregator is a Recorder that aggregates individual transitions to
// county-level daily new counts per health state — the "aggregate
// simulation data" (days × health states × 3 counts) of Figures 3–5.
type CountyAggregator struct {
	days     int
	counties []int32
	// countyOf[pid] is the ordinal of the person's county in counties, and
	// dense[ordinal·NumStates + state] that pair's series: Record indexes
	// both without hashing. Both are nil on an aggregator read from a
	// summary file, which only serves the read paths.
	countyOf []int32
	dense    [][]int32
	// series[key][day] = new entries into key.State in key.CountyFIPS.
	// Every reader goes through it; a series is registered here when it is
	// first allocated.
	series map[CountKey][]int32
}

// NewCountyAggregator builds an aggregator for the given network and
// horizon. The person→county numbering is the network's shared index, so
// an aggregator costs no pass over the population.
func NewCountyAggregator(net *synthpop.Network, days int) *CountyAggregator {
	ix := net.Counties()
	return &CountyAggregator{
		days:     days,
		counties: ix.FIPS,
		countyOf: ix.OfPerson,
		dense:    make([][]int32, len(ix.FIPS)*int(disease.NumStates)),
		series:   map[CountKey][]int32{},
	}
}

// Record implements epihiper.Recorder.
func (a *CountyAggregator) Record(tick int, pid int32, from, to disease.State, infector int32) {
	if tick < 0 || tick >= a.days {
		return
	}
	county := a.countyOf[pid]
	s := &a.dense[int(county)*int(disease.NumStates)+int(to)]
	if *s == nil {
		*s = make([]int32, a.days)
		a.series[CountKey{CountyFIPS: a.counties[county], State: to}] = *s
	}
	(*s)[tick]++
}

// Counties returns the county FIPS codes in ascending order.
func (a *CountyAggregator) Counties() []int32 { return a.counties }

// Daily returns the daily new-count series for a county and state (nil when
// the county never saw that state).
func (a *CountyAggregator) Daily(county int32, st disease.State) []int32 {
	return a.series[CountKey{CountyFIPS: county, State: st}]
}

// SummaryBytes estimates the serialized size of the aggregate output of one
// simulation over a region of the given counties: counties × days × health
// states × 3 counts × 4 bytes, the quantity the workflow ships back to the
// home cluster. It depends on the region and horizon alone, so no
// aggregator has to record a run to size it.
func SummaryBytes(counties, days int) int64 {
	return int64(counties) * int64(days) * int64(disease.NumStates) * 3 * 4
}

// WriteSummaryCSV writes the county/day/state new-count table.
func (a *CountyAggregator) WriteSummaryCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "county_fips,day,state,new_count"); err != nil {
		return err
	}
	keys := make([]CountKey, 0, len(a.series))
	for k := range a.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].CountyFIPS != keys[j].CountyFIPS {
			return keys[i].CountyFIPS < keys[j].CountyFIPS
		}
		return keys[i].State < keys[j].State
	})
	for _, k := range keys {
		for d, v := range a.series[k] {
			if v == 0 {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d\n", k.CountyFIPS, d, k.State, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadSummaryCSV parses a summary written by WriteSummaryCSV into a new
// aggregator — the home cluster's ingest side of the two-site flow. The
// aggregator carries only the series (no person mapping), sufficient for
// all read paths.
func ReadSummaryCSV(rd io.Reader, days int) (*CountyAggregator, error) {
	a := &CountyAggregator{days: days, series: map[CountKey][]int32{}}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("output: empty summary file")
	}
	if !strings.HasPrefix(sc.Text(), "county_fips,day,state,new_count") {
		return nil, fmt.Errorf("output: unexpected summary header %q", sc.Text())
	}
	seen := map[int32]bool{}
	line := 1
	for sc.Scan() {
		line++
		parts := strings.Split(sc.Text(), ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("output: line %d: malformed summary row", line)
		}
		// FIPS codes and counts are held as int32: parsing at that width
		// refuses a value that would wrap.
		fips, err1 := strconv.ParseInt(parts[0], 10, 32)
		day, err2 := strconv.Atoi(parts[1])
		count, err3 := strconv.ParseInt(parts[3], 10, 32)
		for _, e := range []error{err1, err2, err3} {
			if e != nil {
				return nil, fmt.Errorf("output: line %d: %w", line, e)
			}
		}
		if day < 0 || day >= days {
			return nil, fmt.Errorf("output: line %d: day %d outside horizon %d", line, day, days)
		}
		if count < 0 {
			return nil, fmt.Errorf("output: line %d: negative count %d", line, count)
		}
		st, err := parseStateName(parts[2])
		if err != nil {
			return nil, fmt.Errorf("output: line %d: %w", line, err)
		}
		key := CountKey{CountyFIPS: int32(fips), State: st}
		s := a.series[key]
		if s == nil {
			s = make([]int32, days)
			a.series[key] = s
		}
		if int64(s[day])+count > math.MaxInt32 {
			return nil, fmt.Errorf("output: line %d: county %d %s day %d sums past int32", line, fips, st, day)
		}
		s[day] += int32(count)
		if !seen[int32(fips)] {
			seen[int32(fips)] = true
			a.counties = append(a.counties, int32(fips))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(a.counties, func(i, j int) bool { return a.counties[i] < a.counties[j] })
	return a, nil
}

// parseStateName resolves a health-state display name.
func parseStateName(name string) (disease.State, error) {
	for s := disease.State(0); s < disease.NumStates; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("output: unknown health state %q", name)
}
