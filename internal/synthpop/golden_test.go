package synthpop

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// TestPopulationGolden pins what popgen writes, byte for byte: the SHA-256 of
// the binary and CSV network files of Generate for two states at seeds 1–2
// and of GenerateWithLocations for one. The binary file holds every row in
// order, so the pin covers the row order the simulator's infector choice
// rests on. GenerateWithLocations is pinned on DC, a one-county region, so
// the pin predates and survives the FIPS-ordered county loop that
// TestGenerateWithLocationsReproducible checks on a five-county one.
// A change to how the network is stored or built must leave the file
// untouched (`go test ./internal/synthpop -run TestPopulationGolden -update`
// rewrites it). It was re-recorded once, when the generator began numbering
// people by county: the four multi-county lines moved (node and edge counts
// did not), the DC line did not.
func TestPopulationGolden(t *testing.T) {
	var got bytes.Buffer
	pin := func(label string, seed uint64, net *Network) {
		var bin, csv bytes.Buffer
		if err := WriteNetworkBinary(&bin, net); err != nil {
			t.Fatal(err)
		}
		if err := WriteNetworkCSV(&csv, net); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s seed=%d nodes=%d edges=%d binary=%x csv=%x\n",
			label, seed, net.NumNodes(), net.NumEdges(), sha256.Sum256(bin.Bytes()), sha256.Sum256(csv.Bytes()))
	}
	for _, seed := range []uint64{1, 2} {
		cfg := DefaultConfig(seed)
		cfg.Scale = 2000
		for _, code := range []string{"CA", "WY"} {
			st, err := StateByCode(code)
			if err != nil {
				t.Fatal(err)
			}
			net, err := Generate(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pin("generate "+code, seed, net)
		}
	}
	dc, err := StateByCode("DC")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Scale = 200
	net, _, err := GenerateWithLocations(dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pin("locations DC", 1, net)

	path := filepath.Join("testdata", "population_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("population files changed:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
