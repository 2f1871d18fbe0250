package epihiper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disease"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// This file holds the plain reference kernel the production tick loop is
// differential-tested against. The reference keeps none of the structures
// that make the production kernel fast — no infectious-contact counters, no
// thinning bound, no at-risk or susceptible frontier, no cached effInf or
// effMaskT tables, no progression calendar, no shards — and derives every
// decision from first principles each tick: every node is visited, every
// susceptible node's whole adjacency row is scanned, the infection test is
// the direct comparison u < 1 − e^{−Λ}, and a progression fires when the
// node's switchTick equals the day. Seedings, at day 0 and later, go through
// the reference's own transition. Only three things are shared with the
// production code, because they DEFINE the model rather than implement it:
// the (seed, node, tick, phase) keying of the random streams, the order of
// the floating-point products of eq. (1), and which persons a seeding picks
// (seededPersons).
//
// A refKernel drives a real *Sim because interventions are written against
// one (they set masks, weights, scales, isolations and variables through its
// methods); it never calls the Sim's tick loop and never reads a derived
// table.
type refKernel struct {
	s   *Sim
	res *Result
	// totals[v] and sigmas[v] hold, for the last executed tick, the exact
	// total propensity Λ(v) and the susceptibility factor σ(v) of every
	// susceptible node (zero for the others): what the production thinning
	// bound must dominate.
	totals, sigmas []float64
	// delayed are the seedings of later days, exposed at the head of their
	// tick.
	delayed []refSeeding
}

type refSeeding struct {
	day  int
	pids []int32
}

func newRefKernel(tb testing.TB, cfg Config) *refKernel {
	tb.Helper()
	cfg.Parallelism = 1
	s, err := newSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n := s.net.NumNodes()
	k := &refKernel{s: s, res: s.newResult(), totals: make([]float64, n), sigmas: make([]float64, n)}
	for _, pid := range cfg.SeedPersons {
		if s.model.IsSusceptible(s.health[pid]) {
			k.transition(pid, s.model.ExposedState, NoInfector, 0)
		}
	}
	for _, seed := range cfg.Seeds {
		ids := s.net.PersonsByCounty()[seed.CountyFIPS]
		if len(ids) == 0 {
			continue
		}
		pids := s.seededPersons(seed, ids)
		if seed.Day > 0 {
			// A pending seeding is a scheduled change of the memory model.
			k.delayed = append(k.delayed, refSeeding{day: seed.Day, pids: pids})
			s.dynamicBytes += perScheduledChangeBytes
			continue
		}
		for _, pid := range pids {
			k.transition(pid, s.model.ExposedState, NoInfector, 0)
		}
	}
	return k
}

// transition moves pid into state to, records the event and samples the
// next progression step the plain way: a heap generator handed to the dwell
// distribution through the stats.Dist interface.
func (k *refKernel) transition(pid int32, to disease.State, infector int32, day int) {
	s := k.s
	from := s.health[pid]
	s.health[pid] = to
	s.currentByState[from]--
	s.currentByState[to]++
	s.cumByState[to]++
	s.todayEvents = append(s.todayEvents, TransitionEvent{PID: pid, From: from, To: to, Infector: infector})
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Record(day, pid, from, to, infector)
	}
	ts := s.model.Transitions(to)
	if len(ts) == 0 {
		s.switchTick[pid] = -1
		return
	}
	ag := s.net.Persons[pid].AgeGroup()
	r := stats.NewRNG(s.nodeSeed(pid, day, phaseProgressionSample))
	u := r.Float64()
	pick, acc := len(ts)-1, 0.0
	for i := range ts {
		acc += ts[i].Prob[ag]
		if u < acc {
			pick = i
			break
		}
	}
	ticks := int(math.Round(ts[pick].Dwell[ag].Sample(r)))
	if ticks < 1 {
		ticks = 1
	}
	s.nextState[pid] = ts[pick].To
	s.switchTick[pid] = int32(day + ticks)
}

// step executes one tick.
func (k *refKernel) step(day int) {
	s := k.s
	n := int32(s.net.NumNodes())
	attrs := &s.model.Attrs
	s.day = day
	if day > 0 {
		s.todayEvents = s.todayEvents[:0]
	}
	// The seedings were queued before any intervention could queue an
	// action, so they run first.
	for _, d := range k.delayed {
		if d.day != day {
			continue
		}
		s.dynamicBytes -= perScheduledChangeBytes
		for _, pid := range d.pids {
			if s.model.IsSusceptible(s.health[pid]) {
				k.transition(pid, s.model.ExposedState, NoInfector, day)
			}
		}
	}
	s.runScheduled(day)

	// Transmission is a synchronous update: every decision reads the state
	// as it stands after the scheduled actions, before any of this tick's
	// progressions.
	omega := s.model.Transmissibility
	var exposures []exposure
	for v := int32(0); v < n; v++ {
		k.totals[v], k.sigmas[v] = 0, 0
		sigma := float64(s.susceptibilityScale[v]) * attrs[s.health[v]].Susceptibility
		if sigma <= 0 {
			continue
		}
		k.sigmas[v] = sigma
		maskV := s.effMask(v)
		total := 0.0
		var props []propEntry
		for k := s.csr.Offsets[v]; k < s.csr.Offsets[v+1]; k++ {
			e := s.csr.At(k)
			u := e.Neighbor
			inf := attrs[s.health[u]].Infectivity * float64(s.infectivityScale[u]) * omega
			if inf == 0 {
				continue
			}
			if maskV&(1<<e.SrcContext) == 0 || s.effMask(u)&(1<<e.DstContext) == 0 {
				continue
			}
			tw := float64(e.DurationMin) / 1440.0 * float64(e.Weight)
			p := tw * s.ctxWeight[e.SrcContext] * sigma * inf
			total += p
			props = append(props, propEntry{nbr: u, p: p})
		}
		k.totals[v] = total
		if total <= 0 {
			continue
		}
		r := stats.NewRNG(s.nodeSeed(v, day, phaseTransmission))
		// expNeg is the model's definition of e^{-x} (a two-term series
		// below 1e-4), not an optimisation of the production kernel.
		if u := r.Float64(); !(u < 1-expNeg(total)) {
			continue
		}
		target := r.Float64() * total
		infector, acc := NoInfector, 0.0
		for _, pe := range props {
			acc += pe.p
			if acc >= target {
				infector = pe.nbr
				break
			}
		}
		exposures = append(exposures, exposure{pid: v, infector: infector})
	}
	for v := int32(0); v < n; v++ {
		if s.switchTick[v] == int32(day) {
			k.transition(v, s.nextState[v], NoInfector, day)
		}
	}
	for _, e := range exposures {
		if s.model.IsSusceptible(s.health[e.pid]) {
			k.transition(e.pid, s.model.ExposedState, e.infector, day)
			k.res.TotalInfections++
		}
	}

	for _, iv := range s.cfg.Interventions {
		iv.Step(s, day, s.ivRNG)
	}
	for _, ev := range s.todayEvents {
		k.res.Daily[day][ev.To]++
	}
	for st, c := range s.currentByState {
		k.res.Current[day][st] = int32(c)
	}
	if mem := s.MemoryBytes(); mem > k.res.PeakMemoryBytes {
		k.res.PeakMemoryBytes = mem
	}
}

func (k *refKernel) run() *Result {
	for day := 0; day < k.s.cfg.Days; day++ {
		k.step(day)
	}
	return k.res
}

// streamRecorder retains the transition stream as bytes, so two runs are
// compared byte for byte rather than by hash.
type streamRecorder struct{ b []byte }

func (r *streamRecorder) Record(tick int, pid int32, from, to disease.State, infector int32) {
	r.b = binary.LittleEndian.AppendUint32(r.b, uint32(tick))
	r.b = binary.LittleEndian.AppendUint32(r.b, uint32(pid))
	r.b = append(r.b, byte(from), byte(to))
	r.b = binary.LittleEndian.AppendUint32(r.b, uint32(infector))
}

// reweighted returns a copy of net in which every undirected contact has a
// pseudo-random duration and a non-integral float weight, a hash of the
// contact's own fields. Rows come out in the order of the CSV file, not of
// net; nothing pinned depends on them.
func reweighted(net *synthpop.Network, seed uint64) *synthpop.Network {
	c := net.CSR()
	out, err := synthpop.NewBuilder(net.Region, net.Persons).Build(func(b *synthpop.Builder) {
		for i := range net.Persons {
			for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
				e := c.At(k)
				if e.Neighbor < int32(i) {
					continue // each contact once, from its lower endpoint
				}
				h := seed ^ uint64(i)*0x9E3779B97F4A7C15 ^ uint64(e.Neighbor)*0xC2B2AE3D27D4EB4F ^
					uint64(e.SrcContext)<<8 ^ uint64(e.DstContext)<<16 ^ uint64(e.StartMin)<<24 ^ uint64(e.DurationMin)<<40
				r := stats.Seeded(h)
				b.AddContact(int32(i), e.Neighbor, e.SrcContext, e.DstContext, e.StartMin,
					uint16(5+r.Intn(900)), float32(0.05+2.5*r.Float64()))
			}
		}
	})
	if err != nil {
		panic(err)
	}
	return out
}

// refStacks are the intervention axes of the differential matrix; each call
// builds fresh (stateful) instances.
var refStacks = []struct {
	name string
	ivs  func(days int) []Intervention
}{
	{"none", func(int) []Intervention { return nil }},
	{"va-stack", func(days int) []Intervention { return BaseCaseInterventions(6, days-8, 0.4, 0.5) }},
	{"masks+pulsing+test-isolate", func(days int) []Intervention {
		return []Intervention{
			&MaskMandate{StartDay: 5, EndDay: days - 6, WeightFactor: 0.6},
			&PulsingShutdown{StartDay: 8, EndDay: days - 4, PeriodDays: 6, Compliance: 0.5},
			&TestAndIsolate{DailyDetectRate: 0.3, IsolationDays: 6},
		}
	}},
	{"lockdown", func(days int) []Intervention {
		// Every non-home context closes network-wide a third of the way in
		// and reopens at two thirds: everyone is home-only in between.
		on, off := days/3, 2*days/3
		return []Intervention{&Triggered{
			Label: "lockdown",
			When:  func(_ *Sim, day int) bool { return day == on || day == off },
			Do: func(s *Sim, day int, _ *stats.RNG) {
				for _, c := range nonHomeContexts {
					s.SetGlobalContext(c, day == off)
				}
			},
		}}
	}},
	{"infectivity>1", func(int) []Intervention {
		return []Intervention{&EnsembleIntervention{
			Label:   "superspreaders",
			Trigger: OnDay(4),
			Ensemble: ActionEnsemble{
				SampleFrac: 0.3,
				Sampled:    OpScaleInfectivity(1.7),
				Remainder:  OpScaleInfectivity(0.9),
			},
		}}
	}},
}

// refWorld is one (network, model, horizon) axis of the matrix; delayed are
// seedings on top of the day-0 one every world has.
type refWorld struct {
	name    string
	net     *synthpop.Network
	model   func() *disease.Model
	days    int
	delayed []Seeding
}

func refWorlds(tb testing.TB) []refWorld {
	net := testNetwork(tb, 4242)
	lively := func() *disease.Model {
		m := disease.COVID19()
		m.Transmissibility = 0.3
		return m
	}
	heavy := reweighted(net, 99)
	if err := heavy.Validate(); err != nil {
		tb.Fatalf("reweighted network: %v", err)
	}
	return []refWorld{
		{"generated", net, lively, 40, nil},
		{"reweighted", heavy, lively, 40, nil},
		{"waning", net, func() *disease.Model {
			m := covid19Waning(8)
			m.Transmissibility = 0.45
			return m
		}, 70, nil},
		// SIR's entry state is infectious, so seeding itself bumps
		// neighbors, across shard lines for the day-3 seeding in the last
		// county.
		{"sir", net, func() *disease.Model { return disease.SIR(0.35, 5) }, 40,
			[]Seeding{{CountyFIPS: net.Persons[len(net.Persons)-1].CountyFIPS, Day: 3, Count: 6}}},
	}
}

func (w refWorld) config(shards int, seed uint64, ivs []Intervention, rec Recorder) Config {
	return Config{
		Model: w.model(), Network: w.net, Days: w.days, Parallelism: shards,
		Seed: seed, Seeds: append(seedAll(w.net, 6), w.delayed...), Interventions: ivs, Recorder: rec,
	}
}

// productionRun executes cfg on the production kernel. With pivot > 0 the run
// is cut at that day and continued by a branch of mode at branchShards, with
// both halves feeding the one recorder.
func productionRun(tb testing.TB, w refWorld, shards int, seed uint64, stack func(int) []Intervention, pivot int, mode branchMode, branchShards int) (*Result, []byte) {
	tb.Helper()
	rec := &streamRecorder{}
	sim, err := New(w.config(shards, seed, stack(w.days), rec))
	if err != nil {
		tb.Fatal(err)
	}
	if pivot <= 0 {
		res, err := sim.Run()
		if err != nil {
			tb.Fatal(err)
		}
		return res, rec.b
	}
	pre, err := sim.RunPrefix(pivot)
	if err != nil {
		tb.Fatal(err)
	}
	simB, err := mode.branch(sim, w.config(branchShards, seed, stack(w.days), rec))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := simB.RunSuffix(pre)
	if err != nil {
		tb.Fatal(err)
	}
	return res, rec.b
}

func requireSameRun(tb testing.TB, label string, wantRes, gotRes *Result, wantStream, gotStream []byte) {
	tb.Helper()
	if !bytes.Equal(wantStream, gotStream) {
		tb.Errorf("%s: transition stream differs from the reference (%d vs %d bytes)", label, len(gotStream), len(wantStream))
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		tb.Errorf("%s: Result differs from the reference (infections %d vs %d)", label, gotRes.TotalInfections, wantRes.TotalInfections)
	}
}

// refShardCounts is the shard axis; the -race line of `make tier1` runs the
// same test, where the multi-shard counts are what the detector can see.
var refShardCounts = []int{1, 2, 4, 8}

// TestKernelMatchesReference byte-compares the production kernel with the
// reference over seeds × shard counts × intervention stacks × worlds ×
// {straight run, snapshot at a random day restored at another shard count,
// forked at a random day onto another shard count}.
func TestKernelMatchesReference(t *testing.T) {
	seeds := []uint64{7, 20260930}
	if testing.Short() {
		seeds = seeds[:1]
	}
	pick := rand.New(rand.NewSource(19))
	for _, w := range refWorlds(t) {
		for _, st := range refStacks {
			for _, seed := range seeds {
				recRef := &streamRecorder{}
				ref := newRefKernel(t, w.config(1, seed, st.ivs(w.days), recRef))
				wantRes := ref.run()
				if wantRes.TotalInfections < 50 {
					t.Fatalf("%s/%s/seed=%d: reference saw only %d infections; the case is vacuous",
						w.name, st.name, seed, wantRes.TotalInfections)
				}
				for _, shards := range refShardCounts {
					label := fmt.Sprintf("%s/%s/seed=%d/shards=%d", w.name, st.name, seed, shards)
					res, stream := productionRun(t, w, shards, seed, st.ivs, 0, branchMode{}, 0)
					requireSameRun(t, label, wantRes, res, recRef.b, stream)

					for _, mode := range branchModes {
						pivot, other := 1+pick.Intn(w.days-1), refShardCounts[pick.Intn(len(refShardCounts))]
						res, stream = productionRun(t, w, shards, seed, st.ivs, pivot, mode, other)
						requireSameRun(t, fmt.Sprintf("%s/%s@%d→shards=%d", label, mode.name, pivot, other),
							wantRes, res, recRef.b, stream)
					}
				}
			}
		}
	}
}

// TestThinningBoundDominates steps the production kernel and the reference
// through the same runs one tick at a time and checks the inequality the
// thinning rests on: at every tick, for every susceptible node the reference
// finds a positive total propensity for, σ·propBound·(the node's
// infectious-contact T·w) is at least that total, and the node is on the
// filtered frontier. A bound or a filter that fell short would not fail
// loudly on its own — it would skip a row whose draw might have infected.
// The transmit phase must visit exactly the frontier's nodes, which under a
// lockdown are strictly fewer than the at-risk susceptible ones: bit
// identity alone cannot tell a dropped filter from a kept one.
func TestThinningBoundDominates(t *testing.T) {
	for _, w := range refWorlds(t) {
		for _, st := range refStacks {
			for _, shards := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/shards=%d", w.name, st.name, shards)
				ref := newRefKernel(t, w.config(1, 11, st.ivs(w.days), nil))
				sim, err := New(w.config(shards, 11, st.ivs(w.days), nil))
				if err != nil {
					t.Fatal(err)
				}
				var res *Result
				var words, front []uint64
				checked, slack := 0, 0.0
				var visits, filtered, unfiltered int64
				for day := 0; day < w.days; day++ {
					// The words the transmit phase of `day` reads are the
					// ones its scheduled actions leave: a seeding into an
					// infectious state bumps neighbors. Actions run in the
					// order they were queued, so this one runs last and
					// copies the words transmit reads. The home-only bits
					// come from effMask, the masks the upkeep phase is
					// about to cache.
					sim.Schedule(day, func(s *Sim) {
						words = append(words[:0], s.infNbr...)
						front = front[:0]
						for wi := range s.riskBits {
							var only uint64
							for v := int32(wi << 6); v < int32(wi+1)<<6 && int(v) < len(s.effMaskT); v++ {
								if s.effMask(v)&^homeOnlyMask == 0 {
									only |= 1 << (v & 63)
								}
							}
							if only != 0 && s.homeNbr == nil {
								t.Fatalf("%s day %d: a person is confined but the home tables never started", label, day)
							}
							front = append(front, frontier(s.riskBits[wi], s.susBits[wi], only, s.homeRisk[wi]))
							unfiltered += int64(bits.OnesCount64(s.riskBits[wi] & s.susBits[wi]))
						}
					})
					if res, err = sim.RunSegment(res, day+1); err != nil {
						t.Fatal(err)
					}
					var want int64
					for _, fw := range front {
						want += int64(bits.OnesCount64(fw))
					}
					if sim.work.atRiskVisits != want {
						t.Fatalf("%s day %d: transmit visited %d nodes, the frontier holds %d", label, day, sim.work.atRiskVisits, want)
					}
					visits, filtered = visits+sim.work.atRiskVisits, filtered+want
					ref.step(day)
					for v, total := range ref.totals {
						if total <= 0 {
							continue
						}
						if words[v]&nbrCountMask == 0 {
							t.Fatalf("%s day %d: node %d has propensity %g but is not at risk", label, day, v, total)
						}
						if front[v>>6]>>(v&63)&1 == 0 {
							t.Fatalf("%s day %d: node %d has propensity %g but is outside the frontier", label, day, v, total)
						}
						bound := ref.sigmas[v] * sim.propBound * float64(words[v]>>nbrCountBits) * quantTWUnit
						if bound < total {
							t.Fatalf("%s day %d: node %d bound %g below its exact propensity %g", label, day, v, bound, total)
						}
						checked++
						slack += bound / total
					}
				}
				if !reflect.DeepEqual(ref.res, res) {
					t.Errorf("%s: stepped production run diverged from the reference", label)
				}
				if checked < 1000 {
					t.Fatalf("%s: only %d node-ticks checked; the case is vacuous", label, checked)
				}
				if st.name == "lockdown" && visits >= unfiltered {
					t.Fatalf("%s: the lockdown left %d of %d at-risk susceptible visits; the filter took none", label, visits, unfiltered)
				}
				t.Logf("%s: %d node-ticks, mean bound/propensity %.2f, visits %d of %d at-risk susceptible",
					label, checked, slack/float64(checked), filtered, unfiltered)
			}
		}
	}
}

// FuzzKernelMatchesReference runs the same comparison on small random
// networks: random size, random multigraph contacts with random contexts,
// durations and weights, a random seed, a random stack and shard count, and
// SIR in place of the waning COVID-19 model when bit 16 of shape is set.
// Every case seeds three persons on day 0 and two more on day 3. shape picks
// the stack modulo len(refStacks) and the shard count from bits 2–3; the
// seeds cover every stack, the lockdown at 4 shards and under SIR.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(150), uint8(0))
	f.Add(uint64(2), uint16(300), uint8(6))
	f.Add(uint64(3), uint16(70), uint8(42))
	f.Add(uint64(4), uint16(520), uint8(14))
	f.Add(uint64(5), uint16(200), uint8(22))
	f.Add(uint64(6), uint16(260), uint8(8))
	f.Add(uint64(7), uint16(180), uint8(18))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, shape uint8) {
		n := 65 + int(size)%600
		r := stats.NewRNG(seed)
		persons := make([]synthpop.Person, n)
		for i := range persons {
			persons[i] = synthpop.Person{ID: int32(i), HouseholdID: int32(i / 3), Age: uint8(r.Intn(90)), CountyFIPS: 1}
		}
		wiring := *r
		net, err := synthpop.NewBuilder("ZZ", persons).Build(func(b *synthpop.Builder) {
			r := wiring // both passes draw the same contacts
			for e, edges := 0, n*(2+r.Intn(6)); e < edges; e++ {
				u, v := int32(r.Intn(n)), int32(r.Intn(n))
				if u == v {
					continue
				}
				cu, cv := synthpop.Context(r.Intn(int(synthpop.NumContexts))), synthpop.Context(r.Intn(int(synthpop.NumContexts)))
				dur, wt := uint16(1+r.Intn(1200)), float32(3*r.Float64())
				b.AddContact(u, v, cu, cv, 0, dur, wt)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("fuzz network invalid: %v", err)
		}
		w := refWorld{name: "fuzz", net: net, days: 25, model: func() *disease.Model {
			m := covid19Waning(7)
			m.Transmissibility = 0.4
			return m
		}}
		if shape&16 != 0 {
			w.name, w.model = "fuzz-sir", func() *disease.Model { return disease.SIR(0.4, 4) }
		}
		seedPersons := []int32{0, int32(n / 2), int32(n - 1)}
		st := refStacks[int(shape)%len(refStacks)]
		shards := refShardCounts[int(shape/4)%len(refShardCounts)]
		cfg := func(shards int, rec Recorder) Config {
			c := w.config(shards, seed, st.ivs(w.days), rec)
			c.Seeds, c.SeedPersons = []Seeding{{CountyFIPS: 1, Day: 3, Count: 2}}, seedPersons
			return c
		}
		recRef, rec := &streamRecorder{}, &streamRecorder{}
		want := newRefKernel(t, cfg(1, recRef)).run()
		sim, err := New(cfg(shards, rec))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, fmt.Sprintf("%s/shards=%d", st.name, shards), want, got, recRef.b, rec.b)
	})
}
