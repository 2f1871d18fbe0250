package synthpop

import (
	"bytes"
	"testing"
)

// FuzzReadNetworkBinary hardens the binary loader against corrupted or
// adversarial files: it must either return an error or a structurally
// valid network, never panic or over-allocate.
func FuzzReadNetworkBinary(f *testing.F) {
	va, _ := StateByCode("VA")
	cfg := DefaultConfig(1)
	cfg.Scale = 100000
	cfg.MinPersons = 50
	net, err := Generate(va, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetworkBinary(&buf, net); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x48, 0x49, 0x50, 0x45, 1, 0, 0, 0})
	for _, lie := range overpromisingFiles() {
		f.Add(lie.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadNetworkBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful parse must produce internally consistent data.
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted network fails Validate: %v", err)
		}
		if err := got.CSR().RangeErr(); err != nil {
			t.Fatalf("accepted network is outside the simulator's range: %v", err)
		}
		requireDerivedColumns(t, "accepted file", got, nil)
		// ... that the writer and the reader agree on: re-written, it reads
		// back as the same columns and re-writes to the same bytes.
		var first, second bytes.Buffer
		if err := WriteNetworkBinary(&first, got); err != nil {
			t.Fatal(err)
		}
		back, err := ReadNetworkBinary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-written file refused: %v", err)
		}
		requireSameColumns(t, "re-written file", back, got)
		if err := WriteNetworkBinary(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-written file does not read back equal")
		}
	})
}

// FuzzReadNetworkCSV does the same for the CSV edge format.
func FuzzReadNetworkCSV(f *testing.F) {
	f.Add("header\n0,1,home,home,0,30,1\n")
	f.Add("header\n")
	f.Add("header\n0,1,home\n")
	f.Add("header\n9,9,home,home,0,30,1\n")
	f.Fuzz(func(t *testing.T, data string) {
		persons := make([]Person, 5)
		for i := range persons {
			persons[i].ID = int32(i)
		}
		got, err := ReadNetworkCSV(bytes.NewBufferString(data), persons, "XX")
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted network fails Validate: %v", err)
		}
	})
}

// FuzzBuildMatchesOracle: any contact list, built by the Builder's two
// passes, must equal the append-per-row oracle column by column. Six bytes
// make one contact among n persons: its endpoints, their contexts, a duration
// and a weight; self-loops and repeats are left in.
func FuzzBuildMatchesOracle(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0, 1, 2, 30, 4})
	f.Add(uint8(5), []byte{0, 1, 0, 0, 60, 10, 1, 0, 3, 4, 90, 20, 4, 2, 6, 6, 255, 255})
	f.Add(uint8(40), bytes.Repeat([]byte{7, 3, 1, 5, 200, 9, 3, 7, 2, 2, 15, 1}, 2100)) // spans two windows
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		persons := make([]Person, n)
		var list []contactArgs
		for ; n > 0 && len(data) >= 6; data = data[6:] {
			list = append(list, contactArgs{
				u: int32(data[0] % n), v: int32(data[1] % n),
				cu: Context(data[2] % uint8(NumContexts)), cv: Context(data[3] % uint8(NumContexts)),
				start: uint16(data[4]) * 5, dur: uint16(data[4]) * 3, w: float32(data[5]) / 16,
			})
		}
		got, err := buildAll("ZZ", persons, list)
		if err != nil {
			t.Fatal(err)
		}
		requireSameColumns(t, "fuzzed list", got, oracleOf("ZZ", persons, list))
	})
}

// FuzzReadPartitions hardens the partition-cache loader.
func FuzzReadPartitions(f *testing.F) {
	var buf bytes.Buffer
	_ = WritePartitions(&buf, []Partition{{FirstNode: 0, LastNode: 9, HalfEdges: 40}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := ReadPartitions(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(parts) > 1<<20 {
			t.Fatal("oversized partition list accepted")
		}
	})
}
