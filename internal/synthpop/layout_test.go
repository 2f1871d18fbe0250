package synthpop

import (
	"bytes"
	"testing"
)

// The generators number people by county so that the simulator's shards —
// contiguous ID ranges — are sets of whole counties. These tests hold that
// layout and the edge cut it buys.

// TestCountyOrderedLayout checks, for both generators: county FIPS never
// decreases along the ID range, person and household IDs are their indices,
// a household's members are the consecutive IDs it names, and the same seed
// writes the same file twice.
func TestCountyOrderedLayout(t *testing.T) {
	generators := []struct {
		name     string
		generate func(StateInfo, Config) (*Network, error)
	}{
		{"Generate", Generate},
		{"GenerateWithLocations", func(st StateInfo, cfg Config) (*Network, error) {
			net, _, err := GenerateWithLocations(st, cfg)
			return net, err
		}},
	}
	for _, g := range generators {
		for _, code := range []string{"RI", "VA"} {
			t.Run(g.name+"/"+code, func(t *testing.T) {
				st, err := StateByCode(code)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(29)
				cfg.Scale = 2000
				net, err := g.generate(st, cfg)
				if err != nil {
					t.Fatal(err)
				}
				counties := map[int32]bool{}
				for i, p := range net.Persons {
					if p.ID != int32(i) {
						t.Fatalf("person at index %d has ID %d", i, p.ID)
					}
					if i > 0 && p.CountyFIPS < net.Persons[i-1].CountyFIPS {
						t.Fatalf("person %d is in county %d, after county %d", i, p.CountyFIPS, net.Persons[i-1].CountyFIPS)
					}
					counties[p.CountyFIPS] = true
				}
				if len(counties) < 2 {
					t.Fatalf("%d county: the order is not exercised", len(counties))
				}
				next := int32(0)
				for i, hh := range net.households {
					if hh.ID != int32(i) || hh.First != next || hh.Size < 1 {
						t.Fatalf("household at index %d: ID %d, members [%d, %d+%d), want to start at %d", i, hh.ID, hh.First, hh.First, hh.Size, next)
					}
					for m := hh.First; m < hh.First+hh.Size; m++ {
						if p := net.Persons[m]; p.HouseholdID != hh.ID || p.CountyFIPS != hh.CountyFIPS {
							t.Fatalf("person %d (household %d, county %d) listed under household %d of county %d",
								m, p.HouseholdID, p.CountyFIPS, hh.ID, hh.CountyFIPS)
						}
					}
					next += hh.Size
				}
				if int(next) != net.NumNodes() {
					t.Fatalf("households hold %d persons of %d", next, net.NumNodes())
				}

				again, err := g.generate(st, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var a, b bytes.Buffer
				if err := WriteNetworkBinary(&a, net); err != nil {
					t.Fatal(err)
				}
				if err := WriteNetworkBinary(&b, again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatal("two calls with one seed wrote different network files")
				}
			})
		}
	}
}

// edgeCut returns the share of half-edges whose two endpoints fall in
// different partitions.
func edgeCut(net *Network, parts []Partition) float64 {
	csr := net.CSR()
	cut := 0
	for _, p := range parts {
		for i := p.FirstNode; i <= p.LastNode; i++ {
			for _, v := range csr.Neighbors(i) {
				if v < p.FirstNode || v > p.LastNode {
					cut++
				}
			}
		}
	}
	return float64(cut) / float64(len(csr.Nbr))
}

// TestLayoutEdgeCut bounds the two-shard edge cut of the partition the
// simulator uses. Numbered in draw order the same networks cut 38–41% of
// their half-edges; the statewide work and college contacts are what is left.
func TestLayoutEdgeCut(t *testing.T) {
	type network struct {
		code  string
		scale int
	}
	cases := []network{{"VA", 1000}}
	if !testing.Short() {
		cases = append(cases, network{"CA", 250}) // the kernel-scale network
	}
	for _, c := range cases {
		st, err := StateByCode(c.code)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(1)
		cfg.Scale = c.scale
		net, err := Generate(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts := net.PartitionNodesAligned(2, 0.05, 64)
		if len(parts) != 2 {
			t.Fatalf("%s 1:%d: %d partitions, want 2", c.code, c.scale, len(parts))
		}
		cut := edgeCut(net, parts)
		t.Logf("%s 1:%d: %d nodes, two-way cut %.3f", c.code, c.scale, net.NumNodes(), cut)
		if cut > 0.15 {
			t.Errorf("%s 1:%d: two shards cut %.3f of the half-edges, want at most 0.15", c.code, c.scale, cut)
		}
	}
}
