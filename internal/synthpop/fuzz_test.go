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
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadNetworkBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful parse must produce internally consistent data.
		if len(got.Adj) != len(got.Persons) {
			t.Fatal("adjacency/person mismatch accepted")
		}
		for _, adj := range got.Adj {
			for _, e := range adj {
				if int(e.Neighbor) >= len(got.Persons) || e.Neighbor < 0 {
					t.Fatal("out-of-range edge accepted")
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted network fails Validate: %v", err)
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
		for i, adj := range got.Adj {
			for _, e := range adj {
				if int(e.Neighbor) >= len(persons) || e.Neighbor == int32(i) && false {
					t.Fatal("bad edge accepted")
				}
			}
		}
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
