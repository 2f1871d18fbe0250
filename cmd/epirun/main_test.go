package main

import (
	"testing"

	"repro/internal/synthpop"
)

// TestSeedingPicksLowestTiedCounty: Vermont at epirun's default scale and
// seed (1:5000, seed 42) has two most populous counties of equal size. The
// run must seed the lower FIPS code every time; choosing by map iteration
// made the same flags report different epidemics.
func TestSeedingPicksLowestTiedCounty(t *testing.T) {
	st, err := synthpop.StateByCode("VT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(42)
	cfg.Scale = 5000
	net, err := synthpop.Generate(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := net.Counties()
	var tied []int32
	best := int32(0)
	for ord, size := range ix.Size {
		switch {
		case size > best:
			tied, best = []int32{ix.FIPS[ord]}, size
		case size == best:
			tied = append(tied, ix.FIPS[ord])
		}
	}
	if len(tied) < 2 {
		t.Fatalf("VT 1:5000 seed 42 has one largest county (%v, %d persons); the tie this test pins is gone", tied, best)
	}
	for range 20 {
		s := seeding(net)
		if len(s) != 1 || s[0].CountyFIPS != tied[0] || s[0].Count != 5 || s[0].Day != 0 {
			t.Fatalf("seeding = %+v, want 5 cases on day 0 in county %d (lowest of %v, %d persons each)", s, tied[0], tied, best)
		}
	}
}
