package synthpop

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/disease"
)

func smallConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.Scale = 20000
	c.MinPersons = 300
	return c
}

func TestStatesRegistry(t *testing.T) {
	if len(States) != 51 {
		t.Fatalf("%d regions want 51", len(States))
	}
	seen := map[string]bool{}
	for _, s := range States {
		if seen[s.Code] {
			t.Fatalf("duplicate state %s", s.Code)
		}
		seen[s.Code] = true
		if s.Population <= 0 || s.Counties <= 0 || s.FIPS <= 0 {
			t.Fatalf("bad state record %+v", s)
		}
	}
	// The paper: ~300 million nodes, 3140 counties.
	pop, counties := 0, 0
	for _, s := range States {
		pop += s.Population
		counties += s.Counties
	}
	if pop < 320e6 || pop > 340e6 {
		t.Errorf("US population %d outside 320–340M", pop)
	}
	if counties < 3100 || counties > 3200 {
		t.Errorf("total counties %d want ≈3140", counties)
	}
}

func TestStateByCode(t *testing.T) {
	va, err := StateByCode("VA")
	if err != nil || va.Name != "Virginia" || va.FIPS != 51 {
		t.Fatalf("VA lookup: %+v, %v", va, err)
	}
	if _, err := StateByCode("ZZ"); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestCountyFIPSRoundTrip(t *testing.T) {
	f := CountyFIPS(51, 3)
	if f/1000 != 51 {
		t.Fatalf("county FIPS roundtrip failed: %d", f)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	va, _ := StateByCode("VA")
	a, err := Generate(va, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(va, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Persons) != len(b.Persons) || a.NumEdges() != b.NumEdges() {
		t.Fatalf("same-seed generation differs: %d/%d vs %d/%d",
			len(a.Persons), a.NumEdges(), len(b.Persons), b.NumEdges())
	}
	for i := range a.Persons {
		if a.Persons[i] != b.Persons[i] {
			t.Fatalf("person %d differs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	va, _ := StateByCode("VA")
	a, _ := Generate(va, smallConfig(7))
	b, _ := Generate(va, smallConfig(8))
	diff := false
	for i := range a.Persons {
		if i < len(b.Persons) && a.Persons[i] != b.Persons[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestGenerateValidNetwork(t *testing.T) {
	va, _ := StateByCode("VA")
	net, err := Generate(va, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateScalesWithPopulation(t *testing.T) {
	cfg := smallConfig(5)
	ca, _ := StateByCode("CA")
	wy, _ := StateByCode("WY")
	nCA, err := Generate(ca, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nWY, err := Generate(wy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nCA.NumNodes() <= nWY.NumNodes() {
		t.Fatalf("CA (%d) should exceed WY (%d)", nCA.NumNodes(), nWY.NumNodes())
	}
	if nCA.NumEdges() <= nWY.NumEdges() {
		t.Fatal("CA edges should exceed WY edges")
	}
}

func TestMeanDegreeNearPaper(t *testing.T) {
	// The US network is ≈300M nodes, 7.9B edges → mean degree ≈26.3 when
	// each edge contributes to two endpoints (2·E/V ≈ 52 half / 26 full).
	va, _ := StateByCode("VA")
	cfg := smallConfig(11)
	cfg.Scale = 5000
	net, err := Generate(va, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := net.MeanDegree()
	if d < 15 || d > 40 {
		t.Fatalf("mean degree %v outside the paper's regime (≈26)", d)
	}
}

func TestHouseholdsAreCliques(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(13))
	adj := rows(net)
	for _, hh := range net.households {
		for m := hh.First; m < hh.First+hh.Size; m++ {
			homeNbrs := map[int32]bool{}
			for _, e := range adj[m] {
				if e.SrcContext == CtxHome {
					homeNbrs[e.Neighbor] = true
				}
			}
			for o := hh.First; o < hh.First+hh.Size; o++ {
				if o != m && !homeNbrs[o] {
					t.Fatalf("household %d members %d,%d not connected at home", hh.ID, m, o)
				}
			}
		}
	}
}

func TestSchoolContactsOnlyForSchoolAges(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(17))
	for i, adj := range rows(net) {
		for _, e := range adj {
			if e.SrcContext == CtxSchool {
				age := net.Persons[i].Age
				if age < 5 || age > 17 {
					t.Fatalf("person %d age %d has a school contact", i, age)
				}
			}
			if e.SrcContext == CtxCollege {
				age := net.Persons[i].Age
				if age < 18 || age > 22 {
					t.Fatalf("person %d age %d has a college contact", i, age)
				}
			}
		}
	}
}

func TestAgeDistributionPlausible(t *testing.T) {
	tx, _ := StateByCode("TX")
	cfg := smallConfig(19)
	cfg.Scale = 5000
	net, _ := Generate(tx, cfg)
	var bands [disease.NumAgeGroups]int
	for _, p := range net.Persons {
		bands[p.AgeGroup()]++
	}
	n := float64(len(net.Persons))
	adult := float64(bands[disease.Age18to49]) / n
	if adult < 0.30 || adult > 0.60 {
		t.Fatalf("18–49 share %v implausible", adult)
	}
	child := float64(bands[disease.Age0to4]) / n
	if child < 0.01 || child > 0.15 {
		t.Fatalf("0–4 share %v implausible", child)
	}
}

func TestCountiesPopulated(t *testing.T) {
	va, _ := StateByCode("VA")
	cfg := smallConfig(23)
	cfg.Scale = 2000
	net, _ := Generate(va, cfg)
	counties := map[int32]int{}
	for _, p := range net.Persons {
		counties[p.CountyFIPS]++
	}
	if len(counties) < 20 {
		t.Fatalf("only %d counties populated for VA (want a broad spread)", len(counties))
	}
	for fips := range counties {
		if int(fips)/1000 != va.FIPS {
			t.Fatalf("county %d not in VA", fips)
		}
	}
}

func TestGenerateAll(t *testing.T) {
	cfg := smallConfig(63)
	cfg.Scale = 200000 // tiny per-state populations: the whole US quickly
	if len(States) != 51 {
		t.Fatalf("%d regions want 51", len(States))
	}
	for _, st := range States {
		net, err := Generate(st, cfg)
		if err != nil {
			t.Fatalf("generating %s: %v", st.Code, err)
		}
		if net.Region != st.Code {
			t.Fatalf("network for %s labeled %s", st.Code, net.Region)
		}
		if net.NumNodes() < cfg.MinPersons {
			t.Fatalf("%s below the floor: %d", st.Code, net.NumNodes())
		}
	}
}

func TestPartitionNodesCoversAll(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(29))
	for _, p := range []int{1, 2, 4, 8} {
		parts := net.PartitionNodes(p, 0.05)
		if len(parts) > p {
			t.Fatalf("requested %d partitions, got %d", p, len(parts))
		}
		next := int32(0)
		total := 0
		for _, part := range parts {
			if part.FirstNode != next {
				t.Fatalf("gap before partition starting at %d", part.FirstNode)
			}
			if part.LastNode < part.FirstNode {
				t.Fatalf("inverted partition %+v", part)
			}
			next = part.LastNode + 1
			total += part.HalfEdges
		}
		if int(next) != net.NumNodes() {
			t.Fatalf("partitions cover %d of %d nodes", next, net.NumNodes())
		}
		if total != 2*net.NumEdges() {
			t.Fatalf("partition half-edges %d want %d", total, 2*net.NumEdges())
		}
	}
}

// TestPartitionNodesAligned pins what the shard-owned simulator depends
// on: every internal boundary lands on an align multiple (so no bitset
// word has two owners), coverage stays contiguous and complete, and the
// HalfEdges loads are consistent with the CSR after rounding.
func TestPartitionNodesAligned(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(29))
	csr := net.CSR()
	for _, p := range []int{1, 2, 4, 8, 16} {
		for _, align := range []int{1, 8, 64} {
			parts := net.PartitionNodesAligned(p, 0.05, align)
			if len(parts) < 1 || len(parts) > p {
				t.Fatalf("p=%d align=%d: got %d partitions", p, align, len(parts))
			}
			next := int32(0)
			total := 0
			for i, part := range parts {
				if part.FirstNode != next {
					t.Fatalf("p=%d align=%d: gap before partition %d (starts %d, want %d)",
						p, align, i, part.FirstNode, next)
				}
				if align > 1 && part.FirstNode%int32(align) != 0 {
					t.Fatalf("p=%d align=%d: partition %d starts at unaligned node %d",
						p, align, i, part.FirstNode)
				}
				if part.LastNode < part.FirstNode {
					t.Fatalf("p=%d align=%d: inverted partition %+v", p, align, part)
				}
				if want := int(csr.Offsets[part.LastNode+1] - csr.Offsets[part.FirstNode]); part.HalfEdges != want {
					t.Fatalf("p=%d align=%d: partition %d carries %d half-edges, CSR says %d",
						p, align, i, part.HalfEdges, want)
				}
				next = part.LastNode + 1
				total += part.HalfEdges
			}
			if int(next) != net.NumNodes() {
				t.Fatalf("p=%d align=%d: coverage ends at %d of %d", p, align, next, net.NumNodes())
			}
			if total != 2*net.NumEdges() {
				t.Fatalf("p=%d align=%d: half-edges %d want %d", p, align, total, 2*net.NumEdges())
			}
		}
	}
	// align=1 must be the unrounded partitioner verbatim.
	plain := net.PartitionNodes(4, 0.05)
	flat := net.PartitionNodesAligned(4, 0.05, 1)
	if len(plain) != len(flat) {
		t.Fatalf("align=1 changed the partition count: %d != %d", len(flat), len(plain))
	}
	for i := range plain {
		if plain[i] != flat[i] {
			t.Fatalf("align=1 changed partition %d: %+v != %+v", i, flat[i], plain[i])
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	ca, _ := StateByCode("CA")
	cfg := smallConfig(31)
	cfg.Scale = 5000
	net, _ := Generate(ca, cfg)
	parts := net.PartitionNodes(6, 0.05)
	if imb := PartitionImbalance(parts); imb > 1.5 {
		t.Fatalf("partition imbalance %v too high", imb)
	}
}

func TestPartitionDegenerate(t *testing.T) {
	net, err := NewBuilder("XX", make([]Person, 3)).Build(func(*Builder) {})
	if err != nil {
		t.Fatal(err)
	}
	parts := net.PartitionNodes(0, 0.1)
	if len(parts) != 1 {
		t.Fatalf("p=0 should yield one partition, got %d", len(parts))
	}
	if PartitionImbalance(nil) != 0 {
		t.Error("imbalance of no partitions should be 0")
	}
	if PartitionImbalance(parts) != 1 {
		t.Error("imbalance of zero-edge partition should be 1")
	}
}

func TestPartitionQuick(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(37))
	err := quick.Check(func(pRaw uint8, epsRaw uint8) bool {
		p := int(pRaw%16) + 1
		eps := float64(epsRaw) / 255.0
		parts := net.PartitionNodes(p, eps)
		if len(parts) == 0 || len(parts) > p {
			return false
		}
		return int(parts[len(parts)-1].LastNode) == net.NumNodes()-1
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCSVPersonRoundTrip(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(41))
	var buf bytes.Buffer
	if err := WritePersonsCSV(&buf, net); err != nil {
		t.Fatal(err)
	}
	persons, err := ReadPersonsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(persons) != len(net.Persons) {
		t.Fatalf("roundtrip count %d want %d", len(persons), len(net.Persons))
	}
	for i := range persons {
		a, b := persons[i], net.Persons[i]
		if a.ID != b.ID || a.Age != b.Age || a.CountyFIPS != b.CountyFIPS || a.HouseholdID != b.HouseholdID {
			t.Fatalf("person %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestCSVNetworkRoundTrip(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(43))
	var buf bytes.Buffer
	if err := WriteNetworkCSV(&buf, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetworkCSV(&buf, net.Persons, "VA")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != net.NumEdges() {
		t.Fatalf("edge count %d want %d", back.NumEdges(), net.NumEdges())
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degree sequence preserved.
	for i := range net.Persons {
		if back.Degree(i) != net.Degree(i) {
			t.Fatalf("degree of %d changed: %d vs %d", i, back.Degree(i), net.Degree(i))
		}
	}
}

func TestReadNetworkCSVErrors(t *testing.T) {
	persons := make([]Person, 2)
	if _, err := ReadNetworkCSV(bytes.NewBufferString(""), persons, "XX"); err == nil {
		t.Error("empty file accepted")
	}
	bad := "header\n0,5,home,home,0,1,1\n"
	if _, err := ReadNetworkCSV(bytes.NewBufferString(bad), persons, "XX"); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	bad2 := "header\n0,1,nonsense,home,0,1,1\n"
	if _, err := ReadNetworkCSV(bytes.NewBufferString(bad2), persons, "XX"); err == nil {
		t.Error("bad context accepted")
	}
}

func TestParseContext(t *testing.T) {
	for c := Context(0); c < NumContexts; c++ {
		got, err := ParseContext(c.String())
		if err != nil || got != c {
			t.Fatalf("context roundtrip failed for %v", c)
		}
	}
	if _, err := ParseContext("zzz"); err == nil {
		t.Error("bad context accepted")
	}
}

func TestContextDegreeShare(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(47))
	// The fraction of half-edges per context.
	var counts [NumContexts]int
	for _, bits := range net.CSR().Ctx {
		counts[bits&7]++
	}
	var share [NumContexts]float64
	for i, c := range counts {
		share[i] = float64(c) / float64(len(net.CSR().Ctx))
	}
	sum := 0.0
	for _, s := range share {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("context shares sum to %v", sum)
	}
	if share[CtxHome] < 0.02 {
		t.Errorf("home share %v implausibly low", share[CtxHome])
	}
	if share[CtxOther] == 0 || share[CtxShopping] == 0 {
		t.Error("shopping/other contexts missing")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(53))
	// No Builder makes these, so the rows are crafted and flattened directly.
	adj := rows(net)
	if err := adj.network("VA", net.Persons).Validate(); err != nil {
		t.Fatalf("uncorrupted rows refused: %v", err)
	}
	// Self-loop.
	adj[0] = append(adj[0], HalfEdge{Neighbor: 0})
	if err := adj.network("VA", net.Persons).Validate(); err == nil {
		t.Fatal("self-loop not caught")
	}
	adj[0] = adj[0][:len(adj[0])-1]
	// Asymmetric edge.
	adj[1] = append(adj[1], HalfEdge{Neighbor: 2, SrcContext: CtxOther, DstContext: CtxOther})
	if err := adj.network("VA", net.Persons).Validate(); err == nil {
		t.Fatal("asymmetric edge not caught")
	}
	// Rows that do not match the person table.
	if err := adj[:len(adj)-1].network("VA", net.Persons).Validate(); err == nil {
		t.Fatal("row count ≠ person count not caught")
	}
}

func TestEdgeByteEstimatesPositive(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(59))
	if net.PersonBytes() <= 0 || net.EdgeBytes() <= 0 {
		t.Fatal("size estimates non-positive")
	}
	if net.EdgeBytes() < net.PersonBytes() {
		t.Error("edge file should dominate person file (degree ≈ 26)")
	}
}
