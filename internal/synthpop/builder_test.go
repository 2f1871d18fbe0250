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
	total := 0
	for _, row := range a {
		total += len(row)
	}
	c.resize(uint64(total), uint64(total))
	for i, row := range a {
		k := c.Offsets[i]
		for _, e := range row {
			c.set(k, e)
			k++
		}
		c.Offsets[i+1] = k
	}
	if err := c.seal(); err != nil {
		panic(err)
	}
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

// requireSameColumns compares two networks half-edge by half-edge: the
// stored columns, the record each code stands for (floats by bit pattern) and
// the T·w and Q it prices. Codes themselves may differ, since they number
// records in the order each network met them.
func requireSameColumns(t *testing.T, label string, got, want *Network) {
	t.Helper()
	g, w := got.CSR(), want.CSR()
	if !slices.Equal(g.Offsets, w.Offsets) {
		t.Fatalf("%s: Offsets differ", label)
	}
	if !slices.Equal(g.Nbr, w.Nbr) || !slices.Equal(g.Ctx, w.Ctx) {
		t.Fatalf("%s: Nbr/Ctx differ", label)
	}
	for k := range g.Code {
		if gr, wr := g.recs[g.Code[k]], w.recs[w.Code[k]]; gr.key() != wr.key() {
			t.Fatalf("%s: half-edge %d has record %+v, want %+v", label, k, gr, wr)
		}
		gc, wc := g.Code[k], w.Code[k]
		if g.Q[gc] != w.Q[wc] || math.Float64bits(g.TW[gc]) != math.Float64bits(w.TW[wc]) {
			t.Fatalf("%s: half-edge %d prices T·w %g (Q %d), want %g (Q %d)", label, k, g.TW[gc], g.Q[gc], w.TW[wc], w.Q[wc])
		}
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

// TestNetworkBytes: Bytes is the columns, the record table and the person
// table: 18 bytes per contact (9 per half-edge), 20 per distinct record, and
// nothing per person but its record and its offset. The generators write
// 1 265 distinct records at most.
func TestNetworkBytes(t *testing.T) {
	va, _ := StateByCode("VA")
	net, err := Generate(va, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	records := int64(len(net.CSR().recs))
	if records == 0 || records > 1265 {
		t.Fatalf("%d distinct records, want 1–1265", records)
	}
	want := int64(net.NumEdges())*18 + records*20 + int64(net.NumNodes())*(24+8) + 8
	if got := net.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

// TestRecordCodes: a code stands for a record's bits. Half-edges whose
// records have equal bits share a code and half-edges whose bits differ do
// not, on both interning paths — once per contact (Builder) and once per
// half-edge (the binary reader's set). Validate still compares records by
// value, so a contact stored as a +0 weight one way and −0 the other is a
// mirror. A record table past maxRecords is refused.
func TestRecordCodes(t *testing.T) {
	weights := []float32{0, float32(math.Copysign(0, -1)), 1, 0.5, float32(math.NaN()), math.Float32frombits(0x7fc00001)}
	r := stats.NewRNG(7)
	var list []contactArgs
	for k := 0; k < 3000; k++ {
		a := contactArgs{u: int32(r.Intn(40)), v: int32(r.Intn(40)), start: uint16(r.Intn(3)), dur: uint16(r.Intn(3)), w: weights[r.Intn(len(weights))]}
		if a.u != a.v {
			list = append(list, a)
		}
	}
	persons := make([]Person, 40)
	built, err := buildAll("ZZ", persons, list)
	if err != nil {
		t.Fatal(err)
	}
	for label, net := range map[string]*Network{"built": built, "set": oracleOf("ZZ", persons, list)} {
		c := net.CSR()
		codeOf, keyOf := map[uint64]uint32{}, map[uint32]uint64{}
		for k, code := range c.Code {
			key := c.recs[code].key()
			e := c.At(int64(k))
			if want := (record{e.StartMin, e.DurationMin, e.Weight}).key(); key != want {
				t.Fatalf("%s: half-edge %d has key %#x, its record %#x", label, k, key, want)
			}
			if prev, ok := codeOf[key]; ok && prev != code {
				t.Fatalf("%s: record %#x has codes %d and %d", label, key, prev, code)
			}
			if prev, ok := keyOf[code]; ok && prev != key {
				t.Fatalf("%s: code %d stands for %#x and %#x", label, code, prev, key)
			}
			codeOf[key], keyOf[code] = code, key
		}
		if len(codeOf) != len(c.recs) {
			t.Fatalf("%s: %d distinct records in %d table entries", label, len(codeOf), len(c.recs))
		}
	}

	mirror := make(adjOracle, 2)
	mirror[0] = []HalfEdge{{Neighbor: 1, DurationMin: 60, Weight: 0}}
	mirror[1] = []HalfEdge{{Neighbor: 0, DurationMin: 60, Weight: float32(math.Copysign(0, -1))}}
	net := mirror.network("ZZ", make([]Person, 2))
	if c := net.CSR(); c.Code[0] == c.Code[1] {
		t.Fatalf("+0 and −0 weights share code %d", c.Code[0])
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("+0/−0 mirror refused: %v", err)
	}

	three := []contactArgs{{u: 0, v: 1, dur: 60, w: 1}, {u: 1, v: 2, dur: 30, w: 1}, {u: 2, v: 0, dur: 10, w: 1}}
	threeNet, err := buildAll("ZZ", persons, three)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := WriteNetworkBinary(&file, threeNet); err != nil {
		t.Fatal(err)
	}
	defer func(old uint64) { maxRecords = old }(maxRecords)
	maxRecords = 2
	if _, err := buildAll("ZZ", persons, three[:2]); err != nil {
		t.Fatalf("two records refused at maxRecords 2: %v", err)
	}
	if _, err := buildAll("ZZ", persons, three); err == nil {
		t.Fatal("three records built at maxRecords 2")
	}
	if _, err := ReadNetworkBinary(&file); err == nil {
		t.Fatal("three records read at maxRecords 2")
	}
}

// requireDerivedColumns holds a network's record table and derived
// per-person column to their definitions: every code names a record, each
// record's TW is its duration as a fraction of a day times its weight, its Q
// is QuantTW of that, and AgeBands()[i] is person i's Table III band. When
// written is not nil, every half-edge's record (At) must also equal, bit for
// bit, the one written's half-edge at the same position.
func requireDerivedColumns(t *testing.T, label string, net, written *Network) {
	t.Helper()
	c := net.CSR()
	if len(c.TW) != len(c.recs) || len(c.Q) != len(c.recs) {
		t.Fatalf("%s: %d TW and %d Q entries for %d records", label, len(c.TW), len(c.Q), len(c.recs))
	}
	for r, rec := range c.recs {
		tw := float64(rec.dur) / 1440.0 * float64(rec.weight)
		if math.Float64bits(c.TW[r]) != math.Float64bits(tw) {
			t.Fatalf("%s: TW[%d] = %g, want %d/1440·%g = %g", label, r, c.TW[r], rec.dur, rec.weight, tw)
		}
		want := int64(-1)
		if tw >= 0 && tw*(1<<TWQuantBits) < MaxQuantTW {
			want = QuantTW(tw)
		}
		if int64(c.Q[r]) != want {
			t.Fatalf("%s: Q[%d] = %d, want QuantTW(%g) = %d", label, r, c.Q[r], tw, want)
		}
	}
	if len(c.Code) != len(c.Nbr) {
		t.Fatalf("%s: %d codes for %d half-edges", label, len(c.Code), len(c.Nbr))
	}
	for k, code := range c.Code {
		if int(code) >= len(c.recs) {
			t.Fatalf("%s: half-edge %d has code %d of %d records", label, k, code, len(c.recs))
		}
		if written == nil {
			continue
		}
		if got, want := c.At(int64(k)), written.CSR().At(int64(k)); !sameHalfEdge(got, want) {
			t.Fatalf("%s: half-edge %d reads %+v, written %+v", label, k, got, want)
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

// sameHalfEdge compares two half-edge records, the weight by bit pattern.
func sameHalfEdge(a, b HalfEdge) bool {
	fa, fb := a, b
	fa.Weight, fb.Weight = 0, 0
	return fa == fb && math.Float32bits(a.Weight) == math.Float32bits(b.Weight)
}

// TestDerivedColumns: the tables a tick reads in place of the records —
// T·w, quantised T·w and age bands — agree with the records on every path a
// network is made by: generated, read from CSV and read from binary, and
// each read network returns the records its file was written from. The
// generated network's records are held to the generators by
// TestPopulationGolden, which hashes every record popgen writes.
func TestDerivedColumns(t *testing.T) {
	va, _ := StateByCode("VA")
	net, err := Generate(va, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	requireDerivedColumns(t, "generated", net, nil)

	var csvBuf bytes.Buffer
	if err := WriteNetworkCSV(&csvBuf, net); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadNetworkCSV(&csvBuf, net.Persons, "VA")
	if err != nil {
		t.Fatal(err)
	}
	// The CSV file lists each contact once, from its lower endpoint, so its
	// rows come back in the order that list gives them.
	var lines []contactArgs
	for i, row := range rows(net) {
		for _, e := range row {
			if e.Neighbor >= int32(i) {
				lines = append(lines, contactArgs{int32(i), e.Neighbor, e.SrcContext, e.DstContext, e.StartMin, e.DurationMin, e.Weight})
			}
		}
	}
	requireDerivedColumns(t, "CSV-read", fromCSV, oracleOf("VA", net.Persons, lines))

	var binBuf bytes.Buffer
	if err := WriteNetworkBinary(&binBuf, net); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadNetworkBinary(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	requireDerivedColumns(t, "binary-read", fromBin, net)
}
