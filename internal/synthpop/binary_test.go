package synthpop

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestBinaryNetworkRoundTrip(t *testing.T) {
	va, _ := StateByCode("VA")
	net, err := Generate(va, smallConfig(71))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetworkBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Region != net.Region {
		t.Fatal("region lost")
	}
	if len(back.Persons) != len(net.Persons) {
		t.Fatalf("person count %d want %d", len(back.Persons), len(net.Persons))
	}
	for i := range net.Persons {
		if back.Persons[i] != net.Persons[i] {
			t.Fatalf("person %d changed: %+v vs %+v", i, back.Persons[i], net.Persons[i])
		}
	}
	if back.NumEdges() != net.NumEdges() {
		t.Fatalf("edges %d want %d", back.NumEdges(), net.NumEdges())
	}
	requireSameColumns(t, "round trip", back, net)
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanCSV(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(73))
	var bin, csv bytes.Buffer
	if err := WriteNetworkBinary(&bin, net); err != nil {
		t.Fatal(err)
	}
	if err := WriteNetworkCSV(&csv, net); err != nil {
		t.Fatal(err)
	}
	// The binary holds both half-edges; CSV holds each edge once. Even
	// so the binary should not be more than ~1.2× the CSV, and per
	// half-edge it is much denser.
	perHalfBin := float64(bin.Len()) / float64(2*net.NumEdges())
	perEdgeCSV := float64(csv.Len()) / float64(net.NumEdges())
	if perHalfBin*2 > perEdgeCSV*1.5 {
		t.Fatalf("binary not compact: %.1fB/half-edge vs %.1fB/CSV edge", perHalfBin, perEdgeCSV)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(75))
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, net); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ReadNetworkBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncation.
	if _, err := ReadNetworkBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	// Versions other than the current one, the retired version 1 included.
	for _, v := range []byte{1, 99} {
		bad2 := append([]byte(nil), data...)
		bad2[4] = v
		if _, err := ReadNetworkBinary(bytes.NewReader(bad2)); err == nil || !strings.Contains(err.Error(), "unsupported network version") {
			t.Errorf("version %d: got %v, want an unsupported-version error", v, err)
		}
	}
}

type namedFile struct {
	name string
	data []byte
}

// overpromisingFiles are three short files whose headers declare far more
// than they deliver: 2²⁴ persons after a bare header, a degree table of
// 4 × 2²² half-edges with none following, and 1000 degrees of 2²⁴ — a
// 16-billion-entry edge array — in 28 KB.
func overpromisingFiles() []namedFile {
	le := binary.LittleEndian
	file := func(n uint32, degree uint32, persons, degrees int) []byte {
		b := le.AppendUint32(nil, networkMagic)
		b = le.AppendUint32(b, networkVersion)
		b = le.AppendUint32(b, n)
		b = append(le.AppendUint16(b, 2), "XX"...)
		b = append(b, make([]byte, 24*persons)...)
		if degrees > 0 {
			b = le.AppendUint64(b, uint64(degrees)*uint64(degree))
			for i := 0; i < degrees; i++ {
				b = le.AppendUint32(b, degree)
			}
		}
		return b
	}
	return []namedFile{
		{"persons", file(1<<24, 0, 0, 0)},
		{"half-edges", file(4, 1<<22, 4, 4)},
		{"degrees", file(1000, 1<<24, 1000, 1000)},
	}
}

// TestReadNetworkBinaryBoundedAllocation: the reader commits memory as
// records arrive, not as the header promises. Each file above must be
// refused having allocated a few MB (the 1 MB read buffer plus one step of
// each slice), where sizing from the declared counts took 0.8, 0.27 and
// 268 GB.
func TestReadNetworkBinaryBoundedAllocation(t *testing.T) {
	for _, lie := range overpromisingFiles() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadNetworkBinary(bytes.NewReader(lie.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte file accepted", lie.name, len(lie.data))
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 6 {
			t.Errorf("%s: %d-byte file allocated %.1f MB before being refused (%v)", lie.name, len(lie.data), mb, err)
		}
	}
}

// TestReadNetworkBinaryRejectsAsymmetricWeight flips the weight of ONE
// half-edge in a written file: the two directions of that contact no longer
// agree, which would let the simulator's infectious-contact sum (built from
// one direction) fall below the propensity the scan finds (read from the
// other). The loader must refuse the file.
func TestReadNetworkBinaryRejectsAsymmetricWeight(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(81))
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, net); err != nil {
		t.Fatal(err)
	}
	// The edge array is the file's tail: 16-byte records, weight last.
	total := len(net.CSR().Nbr)
	data := buf.Bytes()
	rec := data[len(data)-16*total+16*(total/2):]
	for _, w := range []float32{0.25, float32(math.NaN()), -1, 1e30} {
		binary.LittleEndian.PutUint32(rec[12:], math.Float32bits(w))
		if _, err := ReadNetworkBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("half-edge weight rewritten to %g: file accepted", w)
		}
	}
	binary.LittleEndian.PutUint32(rec[12:], math.Float32bits(1))
	if _, err := ReadNetworkBinary(bytes.NewReader(data)); err != nil {
		t.Fatalf("restored file refused: %v", err)
	}
	// An unknown context would index past the simulator's per-context tables.
	rec[4] = uint8(NumContexts)
	if _, err := ReadNetworkBinary(bytes.NewReader(data)); err == nil {
		t.Error("unknown context accepted")
	}
}

// TestReadNetworkCSVRejectsBadWeight: the CSV reader mirrors contacts by
// construction, so what a line can still get wrong is the weight itself.
func TestReadNetworkCSVRejectsBadWeight(t *testing.T) {
	persons := make([]Person, 3)
	for i := range persons {
		persons[i].ID = int32(i)
	}
	const header = "source_pid,target_pid,source_activity,target_activity,start_min,duration_min,weight\n"
	for _, w := range []string{"NaN", "-0.5", "+Inf", "1e9"} {
		if _, err := ReadNetworkCSV(strings.NewReader(header+"0,1,home,work,60,30,"+w+"\n"), persons, "XX"); err == nil {
			t.Errorf("weight %s accepted", w)
		}
	}
	net, err := ReadNetworkCSV(strings.NewReader(header+"0,1,home,work,60,30,0.5\n1,2,other,other,0,1440,2\n"), persons, "XX")
	if err != nil {
		t.Fatal(err)
	}
	if net.NumEdges() != 2 {
		t.Fatalf("read %d edges, want 2", net.NumEdges())
	}
}

// TestValidateFixedPointLimits states the limits of the simulator's
// fixed-point contact sums: a single contact's T·w below 2048, a node's
// contacts summing below 2²⁰.
func TestValidateFixedPointLimits(t *testing.T) {
	pair := func(dur uint16, w float32, copies int) *Network {
		net, err := NewBuilder("XX", make([]Person, 2)).Build(func(b *Builder) {
			for i := 0; i < copies; i++ {
				b.AddContact(0, 1, CtxHome, CtxHome, 0, dur, w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	if err := pair(1440, 2047, 1).Validate(); err != nil {
		t.Errorf("T·w 2047 refused: %v", err)
	}
	if err := pair(1440, 2048, 1).Validate(); err == nil {
		t.Error("T·w 2048 accepted")
	}
	if err := pair(1440, 2000, 524).Validate(); err != nil {
		t.Errorf("row sum 1 048 000 refused: %v", err)
	}
	big := pair(1440, 2000, 525)
	if err := big.Validate(); err == nil {
		t.Error("row sum 1 050 000 accepted")
	}
	if err := big.CSR().RangeErr(); err == nil {
		t.Error("CSR reports no range error for a row Validate refuses")
	}
}

func TestPartitionCacheRoundTrip(t *testing.T) {
	va, _ := StateByCode("VA")
	net, _ := Generate(va, smallConfig(77))
	parts := net.PartitionNodes(6, 0.05)
	var buf bytes.Buffer
	if err := WritePartitions(&buf, parts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPartitions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(parts) {
		t.Fatalf("%d partitions want %d", len(back), len(parts))
	}
	for i := range parts {
		if back[i] != parts[i] {
			t.Fatalf("partition %d changed", i)
		}
	}
	if err := ValidatePartitionsFor(back, net); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePartitionsDetectsStaleCache(t *testing.T) {
	va, _ := StateByCode("VA")
	netA, _ := Generate(va, smallConfig(79))
	parts := netA.PartitionNodes(4, 0.05)
	// A different network: the cache is stale.
	cfgB := smallConfig(80)
	cfgB.OtherContacts = 9
	netB, _ := Generate(va, cfgB)
	if err := ValidatePartitionsFor(parts, netB); err == nil {
		t.Fatal("stale partition cache accepted")
	}
	if err := ValidatePartitionsFor(nil, netA); err == nil {
		t.Fatal("empty partitioning accepted")
	}
}

func TestReadPartitionsRejectsGarbage(t *testing.T) {
	if _, err := ReadPartitions(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage partition file accepted")
	}
}
