package epihiper

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/disease"
	"repro/internal/obs"
	"repro/internal/popdb"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(tick int, pid int32, from, to disease.State, infector int32)

// Record implements Recorder.
func (f RecorderFunc) Record(tick int, pid int32, from, to disease.State, infector int32) {
	f(tick, pid, from, to, infector)
}

// testNetwork builds a small deterministic VA network (~800 persons).
func testNetwork(t testing.TB, seed uint64) *synthpop.Network {
	t.Helper()
	va, err := synthpop.StateByCode("VA")
	if err != nil {
		t.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(seed)
	cfg.Scale = 10000
	cfg.MinPersons = 400
	net, err := synthpop.Generate(va, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// seedAll seeds a few infections in the most populous counties.
func seedAll(net *synthpop.Network, count int) []Seeding {
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
	return []Seeding{{CountyFIPS: best, Day: 0, Count: count}}
}

func baseConfig(net *synthpop.Network, seed uint64) Config {
	return Config{
		Model:       disease.COVID19(),
		Network:     net,
		Days:        60,
		Parallelism: 2,
		Seed:        seed,
		Seeds:       seedAll(net, 5),
	}
}

func TestNewValidation(t *testing.T) {
	net := testNetwork(t, 1)
	if _, err := New(Config{Network: net, Days: 10}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := New(Config{Model: disease.COVID19(), Days: 10}); err == nil {
		t.Error("missing network accepted")
	}
	if _, err := New(Config{Model: disease.COVID19(), Network: net, Days: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	negative := []Seeding{{CountyFIPS: seedAll(net, 1)[0].CountyFIPS, Day: 0, Count: -3}}
	if _, err := New(Config{Model: disease.COVID19(), Network: net, Days: 10, Seeds: negative}); err == nil {
		t.Error("negative seeding count accepted")
	}
}

func TestEpidemicSpreads(t *testing.T) {
	net := testNetwork(t, 2)
	sim, err := New(baseConfig(net, 42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfections < 20 {
		t.Fatalf("epidemic did not spread: %d infections (n=%d)", res.TotalInfections, net.NumNodes())
	}
	if res.TotalInfections > int64(net.NumNodes()) {
		t.Fatalf("more infections (%d) than people (%d)", res.TotalInfections, net.NumNodes())
	}
}

func TestZeroTransmissibilityNoSpread(t *testing.T) {
	net := testNetwork(t, 3)
	m := disease.COVID19().Clone()
	m.Transmissibility = 0
	cfg := baseConfig(net, 7)
	cfg.Model = m
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfections != 0 {
		t.Fatalf("%d infections with zero transmissibility", res.TotalInfections)
	}
}

func TestPopulationConserved(t *testing.T) {
	net := testNetwork(t, 4)
	sim, err := New(baseConfig(net, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	n := int32(net.NumNodes())
	for d := range res.Current {
		var sum int32
		for _, c := range res.Current[d] {
			sum += c
		}
		if sum != n {
			t.Fatalf("day %d: population %d want %d", d, sum, n)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	net := testNetwork(t, 7)
	outcomes := map[int64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		sim, err := New(baseConfig(net, seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		outcomes[res.TotalInfections] = true
	}
	if len(outcomes) < 2 {
		t.Fatal("different seeds all gave identical infection counts")
	}
}

func TestDelayedSeeding(t *testing.T) {
	net := testNetwork(t, 8)
	cfg := baseConfig(net, 13)
	cfg.Seeds = []Seeding{{CountyFIPS: cfg.Seeds[0].CountyFIPS, Day: 10, Count: 5}}
	cfg.Days = 20
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 10; d++ {
		if res.Daily[d][disease.Exposed] != 0 {
			t.Fatalf("exposure on day %d before delayed seeding", d)
		}
	}
	if res.Daily[10][disease.Exposed] == 0 {
		t.Fatal("delayed seeding did not fire on day 10")
	}
}

func TestRecorderStreamConsistent(t *testing.T) {
	net := testNetwork(t, 9)
	type rec struct {
		tick     int
		pid      int32
		from, to disease.State
		infector int32
	}
	var log []rec
	cfg := baseConfig(net, 21)
	cfg.Recorder = RecorderFunc(func(tick int, pid int32, from, to disease.State, infector int32) {
		log = append(log, rec{tick, pid, from, to, infector})
	})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Ticks must be non-decreasing; transmissions must name an infector
	// except for seeded cases; per-day counts must match the summary.
	daily := make([][disease.NumStates]int32, cfg.Days)
	prevTick := 0
	transmissions := int64(0)
	for _, e := range log {
		if e.tick < prevTick {
			t.Fatalf("ticks out of order: %d after %d", e.tick, prevTick)
		}
		prevTick = e.tick
		daily[e.tick][e.to]++
		if e.to == disease.Exposed {
			if e.infector != NoInfector {
				transmissions++
			}
		} else if e.infector != NoInfector {
			t.Fatalf("non-transmission event has infector: %+v", e)
		}
	}
	for d := range daily {
		if daily[d] != res.Daily[d] {
			t.Fatalf("day %d recorder/summary mismatch", d)
		}
	}
	if transmissions != res.TotalInfections {
		t.Fatalf("recorder transmissions %d vs result %d", transmissions, res.TotalInfections)
	}
}

func TestInfectorWasInfectious(t *testing.T) {
	net := testNetwork(t, 10)
	m := disease.COVID19()
	// Transmission uses start-of-tick states (synchronous update), so an
	// infector may progress out of infectiousness in the same tick its
	// transmission lands; track both the current and previous state.
	state := make([]disease.State, net.NumNodes())
	prev := make([]disease.State, net.NumNodes())
	changed := make([]int, net.NumNodes())
	for i := range changed {
		changed[i] = -1
	}
	cfg := baseConfig(net, 31)
	cfg.Recorder = RecorderFunc(func(tick int, pid int32, from, to disease.State, infector int32) {
		if infector != NoInfector {
			okNow := m.IsInfectious(state[infector])
			okStart := changed[infector] == tick && m.IsInfectious(prev[infector])
			if !okNow && !okStart {
				t.Errorf("tick %d: infector %d in state %v (prev %v)", tick, infector, state[infector], prev[infector])
			}
		}
		prev[pid] = state[pid]
		state[pid] = to
		changed[pid] = tick
	})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDBBackedSeeding(t *testing.T) {
	net := testNetwork(t, 11)
	db, err := popdb.NewServer("VA", net.Persons, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(net, 41)
	cfg.DB = db
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfections == 0 {
		t.Fatal("DB-backed run produced no epidemic")
	}
	if db.Stats().Queries == 0 {
		t.Fatal("population DB was not queried")
	}
	if db.Stats().Open != 0 {
		t.Fatal("connection leaked")
	}
}

func TestMemoryTraceRecorded(t *testing.T) {
	net := testNetwork(t, 12)
	cfg := baseConfig(net, 51)
	sh := &StayAtHome{StartDay: 10, EndDay: 40, Compliance: 0.7}
	cfg.Interventions = []Intervention{sh}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	trace := sim.MemoryTrace()
	if len(trace) != cfg.Days {
		t.Fatalf("trace length %d want %d", len(trace), cfg.Days)
	}
	if trace[11] <= trace[5] {
		t.Fatalf("memory did not grow at SH start: %d vs %d", trace[11], trace[5])
	}
	if res.PeakMemoryBytes < trace[0] {
		t.Fatal("peak memory below baseline")
	}
}

func TestRunReplicatesEnsemble(t *testing.T) {
	net := testNetwork(t, 13)
	cfg := baseConfig(net, 61)
	cfg.Days = 40
	results, err := runReplicates(context.Background(), cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	distinct := map[int64]bool{}
	for _, r := range results {
		distinct[r.TotalInfections] = true
	}
	if len(distinct) < 2 {
		t.Fatal("replicates not stochastic")
	}
	qs := ensembleQuantiles(results, disease.Symptomatic, 0.025, 0.5, 0.975)
	for d := 0; d < cfg.Days; d++ {
		if qs[0][d] > qs[1][d] || qs[1][d] > qs[2][d] {
			t.Fatalf("quantiles not ordered on day %d: %v %v %v", d, qs[0][d], qs[1][d], qs[2][d])
		}
	}
	for d := 1; d < cfg.Days; d++ {
		if qs[1][d] < qs[1][d-1] {
			t.Fatal("median cumulative series decreased")
		}
	}
}

// Stateful interventions need a fresh stack per replicate to run in
// parallel; the results must be identical to the sequential shared-stack
// path.
func TestRunReplicatesInterventionFactory(t *testing.T) {
	net := testNetwork(t, 15)
	mk := func() []Intervention {
		return []Intervention{
			&StayAtHome{StartDay: 10, EndDay: 30, Compliance: 0.6},
			&VoluntaryHomeIsolation{Compliance: 0.5, IsolationDays: 14},
		}
	}
	cfg := baseConfig(net, 81)
	cfg.Days = 40
	parallel, err := runReplicates(context.Background(), cfg, 4, mk)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential path: one shared stack. Stateful interventions
	// are reset at their StartDay, so sequential reuse is well-defined.
	cfg2 := baseConfig(net, 81)
	cfg2.Days = 40
	cfg2.Interventions = mk()
	sequential, err := runReplicates(context.Background(), cfg2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rep := range parallel {
		if parallel[rep].TotalInfections != sequential[rep].TotalInfections {
			t.Fatalf("replicate %d: fresh stacks %d vs shared %d infections",
				rep, parallel[rep].TotalInfections, sequential[rep].TotalInfections)
		}
	}
}

func TestEnsembleQuantilesEmpty(t *testing.T) {
	if ensembleQuantiles(nil, disease.Symptomatic, 0.5) != nil {
		t.Fatal("empty ensemble should be nil")
	}
}

func TestAttackRate(t *testing.T) {
	r := &Result{TotalInfections: 50}
	if Attack(r, 200) != 0.25 {
		t.Fatal("attack rate wrong")
	}
	if Attack(r, 0) != 0 {
		t.Fatal("zero population attack should be 0")
	}
}

func TestVarsAndTriggered(t *testing.T) {
	net := testNetwork(t, 14)
	cfg := baseConfig(net, 71)
	fired := -1
	cfg.Interventions = []Intervention{
		&Triggered{
			Label: "threshold",
			When:  prevalenceAbove(disease.Symptomatic, 0.01),
			Do: func(s *Sim, day int, r *stats.RNG) {
				if fired < 0 {
					fired = day
					s.Vars["fired"] = float64(day)
				}
			},
		},
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fired < 0 {
		t.Skip("epidemic never crossed 1% symptomatic in this draw")
	}
	if sim.Vars["fired"] != float64(fired) {
		t.Fatal("user-defined variable not persisted")
	}
	if fired == 0 {
		t.Fatal("trigger fired before any spread")
	}
}

func TestOnDayTrigger(t *testing.T) {
	if !OnDay(5)(nil, 5) || OnDay(5)(nil, 4) {
		t.Fatal("OnDay trigger wrong")
	}
}

// prevalenceAbove builds a trigger that fires when the current occupancy of
// a state exceeds a fraction of the population.
func prevalenceAbove(st disease.State, frac float64) func(*Sim, int) bool {
	return func(s *Sim, day int) bool {
		return float64(s.currentByState[st]) > frac*float64(s.net.NumNodes())
	}
}

// ensembleQuantiles computes pointwise quantiles of the cumulative series
// of a state across replicate results.
func ensembleQuantiles(results []*Result, st disease.State, qs ...float64) [][]float64 {
	if len(results) == 0 {
		return nil
	}
	out := make([][]float64, len(qs))
	for i := range out {
		out[i] = make([]float64, results[0].Days)
	}
	series := make([][]float64, len(results))
	for i, r := range results {
		series[i] = r.cumulativeInto(st)
	}
	stats.EnsembleQuantiles(series, qs, out...)
	return out
}

// cumulativeInto returns the cumulative daily series of entries into the
// given state.
func (r *Result) cumulativeInto(st disease.State) []float64 {
	out := make([]float64, len(r.Daily))
	var acc int64
	for d := range r.Daily {
		acc += int64(r.Daily[d][st])
		out[d] = float64(acc)
	}
	return out
}

// runReplicates executes the same configuration with distinct replicate
// seeds and returns the per-replicate results in replicate order.
// Replicates run in parallel when that is safe: either the configuration
// has no interventions, or stack is set and builds each replicate a fresh
// (non-shared) intervention stack. With only a shared Interventions slice,
// replicates run sequentially to avoid racing on stateful interventions. Parallel fan-out is bounded by a worker pool of
// GOMAXPROCS goroutines — each replicate holds per-person state for the
// whole network, so unbounded fan-out at production replicate counts
// multiplies peak memory for no throughput gain. It runs under an
// "epihiper.replicates" span with one child span per replicate; tracing
// reads only the tracer's clock, never the simulation RNG, so results are
// bit-identical with or without a tracer.
func runReplicates(ctx context.Context, cfg Config, replicates int, stack func() []Intervention) ([]*Result, error) {
	ctx, sp := obs.StartSpan(ctx, "epihiper.replicates",
		obs.Int("replicates", int64(replicates)), obs.Int("days", int64(cfg.Days)))
	defer sp.End()
	results := make([]*Result, replicates)
	errs := make([]error, replicates)
	runOne := func(rep int) {
		_, rsp := obs.StartSpan(ctx, "epihiper.replicate", obs.Int("replicate", int64(rep)))
		defer rsp.End()
		c := cfg
		c.Seed = cfg.Seed + uint64(rep)*0x9E3779B97F4A7C15
		c.Recorder = nil // recorders are not safe across replicate goroutines
		if stack != nil {
			c.Interventions = stack()
		}
		sim, err := New(c)
		if err != nil {
			errs[rep] = err
			return
		}
		results[rep], errs[rep] = sim.Run()
		if results[rep] != nil {
			rsp.SetAttr(obs.Int("infections", results[rep].TotalInfections))
		}
	}
	parallelSafe := cfg.Interventions == nil || stack != nil
	var ctxErr error
	if parallelSafe {
		workers := runtime.GOMAXPROCS(0)
		if workers > replicates {
			workers = replicates
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := range jobs {
					runOne(rep)
				}
			}()
		}
		// The dispatch loop watches the context: a cancelled client (an
		// episerve disconnect) must not keep queueing replicates behind
		// the ones already in flight. In-flight replicates drain before
		// return so no sim outlives the call.
		for rep := 0; rep < replicates; rep++ {
			if ctxErr = ctx.Err(); ctxErr != nil {
				break
			}
			select {
			case jobs <- rep:
			case <-ctx.Done():
				ctxErr = ctx.Err()
			}
			if ctxErr != nil {
				break
			}
		}
		close(jobs)
		wg.Wait()
	} else {
		for rep := 0; rep < replicates; rep++ {
			if ctxErr = ctx.Err(); ctxErr != nil {
				break
			}
			runOne(rep)
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
