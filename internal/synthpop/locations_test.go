package synthpop

import (
	"bytes"
	"math"
	"testing"
)

func TestGenerateWithLocations(t *testing.T) {
	ri, _ := StateByCode("RI")
	cfg := smallConfig(90)
	cfg.Scale = 2000
	net, lm, err := GenerateWithLocations(ri, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	stats := lm.Stats()
	// One residence per household.
	if stats.ByType[LocResidence] != len(net.households) {
		t.Fatalf("%d residences for %d households", stats.ByType[LocResidence], len(net.households))
	}
	// Activity locations of every type exist.
	for _, lt := range []LocationType{LocWork, LocSchool, LocShopping, LocReligion, LocOther} {
		if stats.ByType[lt] == 0 {
			t.Fatalf("no %v locations", lt)
		}
	}
	// Everyone has a home visit; most have several visits.
	visitsPer := map[int32]int{}
	for _, v := range lm.Visits {
		visitsPer[v.Person]++
	}
	if len(visitsPer) != net.NumNodes() {
		t.Fatalf("%d persons have visits, want %d", len(visitsPer), net.NumNodes())
	}
	multi := 0
	for _, n := range visitsPer {
		if n >= 3 {
			multi++
		}
	}
	if multi < net.NumNodes()/2 {
		t.Fatalf("only %d/%d persons have ≥3 activities", multi, net.NumNodes())
	}
}

// Every non-home contact derives from a shared location: the co-occupancy
// invariant of stage (iv).
func TestContactsImplyCoOccupancy(t *testing.T) {
	ri, _ := StateByCode("RI")
	cfg := smallConfig(91)
	cfg.Scale = 4000
	net, lm, err := GenerateWithLocations(ri, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// locsOf[p] = set of locations p visits.
	locsOf := map[int32]map[int32]bool{}
	for _, v := range lm.Visits {
		if locsOf[v.Person] == nil {
			locsOf[v.Person] = map[int32]bool{}
		}
		locsOf[v.Person][v.Location] = true
	}
	householdOf := map[int32]int32{}
	for i := range net.Persons {
		householdOf[net.Persons[i].ID] = net.Persons[i].HouseholdID
	}
	for pid, adj := range rows(net) {
		for _, e := range adj {
			if e.SrcContext == CtxHome {
				if householdOf[int32(pid)] != householdOf[e.Neighbor] {
					t.Fatalf("home contact across households: %d–%d", pid, e.Neighbor)
				}
				continue
			}
			shared := false
			for loc := range locsOf[int32(pid)] {
				if locsOf[e.Neighbor][loc] {
					shared = true
					break
				}
			}
			if !shared {
				t.Fatalf("contact %d–%d (%v) without a shared location", pid, e.Neighbor, e.SrcContext)
			}
		}
	}
}

func TestLocationNetworkComparableToBase(t *testing.T) {
	ri, _ := StateByCode("RI")
	cfg := smallConfig(92)
	cfg.Scale = 2000
	base, err := Generate(ri, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withLoc, _, err := GenerateWithLocations(ri, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same population; contact volume within 2× of the base generator.
	if withLoc.NumNodes() != base.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", withLoc.NumNodes(), base.NumNodes())
	}
	ratio := withLoc.MeanDegree() / base.MeanDegree()
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("degree ratio %v (loc %v vs base %v)", ratio, withLoc.MeanDegree(), base.MeanDegree())
	}
}

func TestVisitorsOf(t *testing.T) {
	lm := &LocationModel{Visits: []Visit{
		{Person: 1, Location: 10}, {Person: 2, Location: 10}, {Person: 1, Location: 11},
	}}
	v := lm.visitorsOf()
	if len(v[10]) != 2 || len(v[11]) != 1 {
		t.Fatalf("visitors wrong: %v", v)
	}
}

func TestLocationTypeNames(t *testing.T) {
	if LocWork.String() != "work" || LocationType(99).String() == "" {
		t.Fatal("location type names wrong")
	}
	if LocSchool.contextFor() != CtxSchool || LocResidence.contextFor() != CtxHome {
		t.Fatal("context mapping wrong")
	}
}

func TestDistance(t *testing.T) {
	a := Location{Lat: 38.03, Lon: -78.48} // Charlottesville
	b := Location{Lat: 40.44, Lon: -79.99} // Pittsburgh
	d := Distance(a, b)
	if math.Abs(d-300) > 40 {
		t.Fatalf("CHO–PIT distance %v km want ≈300", d)
	}
	if Distance(a, a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

// TestGenerateWithLocationsReproducible: one seed, one network, on a region
// with several counties (RI has five) — the per-county activity assignment
// draws from the generator's RNG, so it must visit counties in a fixed order.
func TestGenerateWithLocationsReproducible(t *testing.T) {
	ri, _ := StateByCode("RI")
	cfg := smallConfig(91)
	cfg.Scale = 2000
	var want []byte
	for run := 0; run < 2; run++ {
		net, _, err := GenerateWithLocations(ri, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNetworkBinary(&buf, net); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("two GenerateWithLocations calls with one seed wrote different network files")
		}
	}
}

// visitorsOf returns the visits grouped by location.
func (lm *LocationModel) visitorsOf() map[int32][]Visit {
	out := make(map[int32][]Visit)
	for _, v := range lm.Visits {
		out[v.Location] = append(out[v.Location], v)
	}
	return out
}
