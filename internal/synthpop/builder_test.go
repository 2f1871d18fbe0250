package synthpop

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/disease"
	"repro/internal/stats"
)

// adjOracle is the representation Network held before the columns: one
// appended-to row of half-edge records per person. It survives here only, as
// the plain statement of the row order the Builder must reproduce.
type adjOracle [][]HalfEdge

func (a adjOracle) addEdge(u, v int32, cu, cv Context, start, dur uint16, w float32) {
	a[u] = append(a[u], HalfEdge{Neighbor: v, SrcContext: cu, DstContext: cv, StartMin: start, DurationMin: dur, Weight: w})
	a[v] = append(a[v], HalfEdge{Neighbor: u, SrcContext: cv, DstContext: cu, StartMin: start, DurationMin: dur, Weight: w})
}

// network flattens the rows into columns the way Network.CSR() used to, so
// tests can compare the Builder's layout against it and can craft networks
// no Builder would make (a one-sided half-edge).
func (a adjOracle) network(region string, persons []Person) *Network {
	net := &Network{Region: region, Persons: persons}
	c := &net.csr
	c.Offsets = make([]int64, len(a)+1)
	for i, row := range a {
		for _, e := range row {
			c.Nbr = append(c.Nbr, e.Neighbor)
			c.Ctx = append(c.Ctx, CtxBits(e.SrcContext, e.DstContext))
			c.Start = append(c.Start, e.StartMin)
			c.Dur = append(c.Dur, e.DurationMin)
			c.Weight = append(c.Weight, e.Weight)
		}
		c.Offsets[i+1] = int64(len(c.Nbr))
	}
	c.seal()
	return net
}

// rows reads a network's rows back as half-edge records.
func rows(net *Network) adjOracle {
	c := net.CSR()
	out := make(adjOracle, net.NumNodes())
	for i := range out {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			out[i] = append(out[i], c.At(k))
		}
	}
	return out
}

// requireSameColumns compares every column of two networks position by
// position, floats by bit pattern.
func requireSameColumns(t *testing.T, label string, got, want *Network) {
	t.Helper()
	g, w := got.CSR(), want.CSR()
	if !slices.Equal(g.Offsets, w.Offsets) {
		t.Fatalf("%s: Offsets differ", label)
	}
	if !slices.Equal(g.Nbr, w.Nbr) || !slices.Equal(g.Ctx, w.Ctx) {
		t.Fatalf("%s: Nbr/Ctx differ", label)
	}
	if !slices.Equal(g.Start, w.Start) || !slices.Equal(g.Dur, w.Dur) {
		t.Fatalf("%s: Start/Dur differ", label)
	}
	if !slices.EqualFunc(g.Weight, w.Weight, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Fatalf("%s: Weight differs", label)
	}
	if !slices.Equal(g.Q, w.Q) {
		t.Fatalf("%s: Q differs", label)
	}
	if (g.RangeErr() == nil) != (w.RangeErr() == nil) {
		t.Fatalf("%s: range check disagrees: %v vs %v", label, g.RangeErr(), w.RangeErr())
	}
}

// contactArgs is one AddContact call, kept so a test can replay it.
type contactArgs struct {
	u, v       int32
	cu, cv     Context
	start, dur uint16
	w          float32
}

// buildAll builds a network over persons from a list of AddContact calls.
func buildAll(region string, persons []Person, contacts []contactArgs) (*Network, error) {
	return NewBuilder(region, persons).Build(func(b *Builder) {
		for _, a := range contacts {
			b.AddContact(a.u, a.v, a.cu, a.cv, a.start, a.dur, a.w)
		}
	})
}

// oracleOf lays the same calls out by appending to per-person rows.
func oracleOf(region string, persons []Person, contacts []contactArgs) *Network {
	oracle := make(adjOracle, len(persons))
	for _, a := range contacts {
		oracle.addEdge(a.u, a.v, a.cu, a.cv, a.start, a.dur, a.w)
	}
	return oracle.network(region, persons)
}

// TestBuilderMatchesAdjacencyOracle: the Builder's two passes must put every
// half-edge where appending to per-person rows would have. Random insertion
// sequences cover repeated contacts, both endpoint orders, isolated nodes,
// unequal contexts, lists of more than 2¹⁴ contacts (several of the
// builder's windows, and more than a list chunk once held) and the empty
// network; the generated networks cover real degree distributions.
func TestBuilderMatchesAdjacencyOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		n := r.Intn(60)
		if seed%10 == 0 {
			n = 3000 // ≥ 8 contacts each
		}
		contacts := 0
		if n >= 2 {
			contacts = r.Intn(8*n) + 8*n
		}
		persons := make([]Person, n)
		// Half the nodes draw contacts; the rest stay isolated unless picked
		// as a partner.
		var list []contactArgs
		var last contactArgs
		for k := 0; k < contacts; k++ {
			a := contactArgs{
				u: int32(r.Intn(n/2 + 1)), v: int32(r.Intn(n)),
				cu: Context(r.Intn(int(NumContexts))), cv: Context(r.Intn(int(NumContexts))),
				start: uint16(r.Intn(1440)), dur: uint16(r.Intn(1440)), w: float32(3 * r.Float64()),
			}
			if a.u == a.v {
				continue
			}
			switch r.Intn(4) {
			case 0: // repeat the previous contact exactly
				if last.u != last.v {
					a = last
				}
			case 1: // the other endpoint order
				a.u, a.v = a.v, a.u
			}
			last = a
			list = append(list, a)
		}
		if seed%10 == 0 && len(list) <= 1<<14 {
			t.Fatalf("seed %d: only %d contacts", seed, len(list))
		}
		got, err := buildAll("ZZ", persons, list)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameColumns(t, "random sequence", got, oracleOf("ZZ", persons, list))
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	// Generated networks, replayed as the contact list the CSV file holds.
	for _, code := range []string{"VA", "WY"} {
		st, _ := StateByCode(code)
		net, err := Generate(st, smallConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		var list []contactArgs
		for i, row := range rows(net) {
			for _, e := range row {
				if e.Neighbor > int32(i) {
					list = append(list, contactArgs{int32(i), e.Neighbor, e.SrcContext, e.DstContext, e.StartMin, e.DurationMin, e.Weight})
				}
			}
		}
		got, err := buildAll(code, net.Persons, list)
		if err != nil {
			t.Fatal(err)
		}
		requireSameColumns(t, code, got, oracleOf(code, net.Persons, list))
		if got.NumEdges() != net.NumEdges() {
			t.Fatalf("%s: replay has %d edges, generated %d", code, got.NumEdges(), net.NumEdges())
		}
	}
}

// TestBuilderRefusesWhatColumnsCannotHold: an endpoint that is not a person
// and a context beyond the three bits Ctx gives it.
func TestBuilderRefusesWhatColumnsCannotHold(t *testing.T) {
	for _, bad := range []contactArgs{
		{u: 0, v: 3, cu: CtxHome, cv: CtxHome},
		{u: -1, v: 1, cu: CtxHome, cv: CtxHome},
		{u: 0, v: 1, cu: NumContexts, cv: CtxHome},
		{u: 0, v: 1, cu: CtxHome, cv: 9},
	} {
		bad.dur, bad.w = 60, 1
		list := []contactArgs{{u: 0, v: 1, cu: CtxHome, cv: CtxWork, dur: 60, w: 1}, bad}
		if net, err := buildAll("ZZ", make([]Person, 3), list); err == nil {
			t.Errorf("contact %+v built a network with %d edges", bad, net.NumEdges())
		}
	}
}

// TestBuilderRefusesNonReplayingWire: the count pass sizes every row, so a
// wiring function whose second call adds a contact, drops one or moves one to
// another endpoint would leave a row overrun or short. Build refuses it
// instead of returning a network.
func TestBuilderRefusesNonReplayingWire(t *testing.T) {
	list := []contactArgs{
		{u: 0, v: 1, cu: CtxHome, cv: CtxHome, dur: 60, w: 1},
		{u: 0, v: 2, cu: CtxWork, cv: CtxWork, dur: 60, w: 1},
		{u: 3, v: 1, cu: CtxOther, cv: CtxOther, dur: 60, w: 1},
	}
	moved := slices.Clone(list)
	moved[0].v = 3
	for _, tc := range []struct {
		name   string
		second []contactArgs
	}{
		{"adds", append(slices.Clone(list), contactArgs{u: 1, v: 2, dur: 60, w: 1})},
		{"adds past the last slot", append(slices.Clone(list), contactArgs{u: 3, v: 0, dur: 60, w: 1})},
		{"adds first", append([]contactArgs{{u: 2, v: 3, dur: 60, w: 1}}, list...)},
		{"drops", list[:2]},
		{"drops first", list[1:]},
		{"moves", moved},
	} {
		pass := 0
		net, err := NewBuilder("ZZ", make([]Person, 4)).Build(func(b *Builder) {
			pass++
			replay := list
			if pass == 2 {
				replay = tc.second
			}
			for _, a := range replay {
				b.AddContact(a.u, a.v, a.cu, a.cv, a.start, a.dur, a.w)
			}
		})
		if err == nil {
			t.Errorf("%s: built a network with %d edges", tc.name, net.NumEdges())
		} else if !strings.Contains(err.Error(), "did not replay") {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if pass != 2 {
			t.Errorf("%s: wire ran %d times, want 2", tc.name, pass)
		}
	}
	// The faithful replay builds.
	if _, err := buildAll("ZZ", make([]Person, 4), list); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderGenerateAllocatesNearItsSize: Generate holds no list of contacts
// beside the columns it fills, so what it allocates in all stays close to the
// network's own size. A contact list alive during the fill took it to ≈1.8×.
func TestBuilderGenerateAllocatesNearItsSize(t *testing.T) {
	va, _ := StateByCode("VA")
	cfg := DefaultConfig(1)
	cfg.Scale = 250
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := Generate(va, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(net.Bytes())
	t.Logf("Generate allocated %.2f× Network.Bytes() (%d contacts)", ratio, net.NumEdges())
	if ratio > 1.4 {
		t.Fatalf("Generate allocated %.2f× Network.Bytes(), want ≤ 1.4", ratio)
	}
}

// TestNetworkBytes: Bytes is the columns plus the person table, 34 bytes per
// contact (17 per half-edge), with nothing per person but its record and its
// offset.
func TestNetworkBytes(t *testing.T) {
	va, _ := StateByCode("VA")
	net, err := Generate(va, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(net.NumEdges())*34 + int64(net.NumNodes())*(24+8) + 8
	if got := net.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

// requireDerivedColumns holds a network's derived per-edge and per-person
// columns to their definitions, recomputed from the record columns: Q[k] is
// QuantTW of half-edge k's T·w, and AgeBands()[i] is person i's Table III
// band.
func requireDerivedColumns(t *testing.T, label string, net *Network) {
	t.Helper()
	c := net.CSR()
	if len(c.Q) != len(c.Nbr) {
		t.Fatalf("%s: %d Q entries for %d half-edges", label, len(c.Q), len(c.Nbr))
	}
	for k := range c.Q {
		if want := QuantTW(float64(c.Dur[k]) / 1440.0 * float64(c.Weight[k])); int64(c.Q[k]) != want {
			t.Fatalf("%s: Q[%d] = %d, want QuantTW(%d/1440·%g) = %d", label, k, c.Q[k], c.Dur[k], c.Weight[k], want)
		}
	}
	bands := net.AgeBands()
	if len(bands) != net.NumNodes() {
		t.Fatalf("%s: %d age bands for %d persons", label, len(bands), net.NumNodes())
	}
	for i := range net.Persons {
		if want := disease.AgeGroupOf(int(net.Persons[i].Age)); bands[i] != want {
			t.Fatalf("%s: person %d (age %d) has band %v, want %v", label, i, net.Persons[i].Age, bands[i], want)
		}
	}
}

// TestDerivedColumns: the columns a tick reads in place of the records —
// quantised weights and age bands — agree with the records on every path a
// network is made by: generated, read from CSV and read from binary.
func TestDerivedColumns(t *testing.T) {
	va, _ := StateByCode("VA")
	net, err := Generate(va, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	requireDerivedColumns(t, "generated", net)

	var csvBuf bytes.Buffer
	if err := WriteNetworkCSV(&csvBuf, net); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadNetworkCSV(&csvBuf, net.Persons, "VA")
	if err != nil {
		t.Fatal(err)
	}
	requireDerivedColumns(t, "CSV-read", fromCSV)

	var binBuf bytes.Buffer
	if err := WriteNetworkBinary(&binBuf, net); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadNetworkBinary(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	requireDerivedColumns(t, "binary-read", fromBin)
}
