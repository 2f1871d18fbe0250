package synthpop

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// This file implements the location model of Appendix C: a set of
// spatially-embedded locations L (residences plus activity locations), the
// assignment of each person's activities to locations, the bipartite
// people–location graph G_PL, and the derivation of the contact network
// from co-occupancy with sub-location mixing ("merely being present at a
// location at the same time does not imply a contact").

// LocationType mirrors the activity types of the population model.
type LocationType uint8

// Location types.
const (
	LocResidence LocationType = iota
	LocWork
	LocSchool
	LocCollege
	LocShopping
	LocReligion
	LocOther
	NumLocationTypes
)

var locationTypeNames = [NumLocationTypes]string{
	"residence", "work", "school", "college", "shopping", "religion", "other",
}

// String returns the location type's display name.
func (lt LocationType) String() string {
	if int(lt) < len(locationTypeNames) {
		return locationTypeNames[lt]
	}
	return fmt.Sprintf("LocationType(%d)", uint8(lt))
}

// contextFor maps a location type to the contact context it generates.
func (lt LocationType) contextFor() Context {
	switch lt {
	case LocResidence:
		return CtxHome
	case LocWork:
		return CtxWork
	case LocSchool:
		return CtxSchool
	case LocCollege:
		return CtxCollege
	case LocShopping:
		return CtxShopping
	case LocReligion:
		return CtxReligion
	default:
		return CtxOther
	}
}

// Location is one spatially-embedded place.
type Location struct {
	ID         int32
	Type       LocationType
	CountyFIPS int32
	Lat, Lon   float32
}

// Visit is one edge of the bipartite people–location graph G_PL: person p
// visits location l with the given daily start time and duration.
type Visit struct {
	Person   int32
	Location int32
	StartMin uint16
	DurMin   uint16
}

// LocationModel is the output of the location-assignment stage.
type LocationModel struct {
	Locations []Location
	Visits    []Visit
}

// GenerateWithLocations builds the population through the full Appendix C
// staging: (i) persons and households (the IPF-fitted base population),
// (ii) activity assignment, (iii) location assignment, (iv) contact
// derivation from co-occupancy with sub-location mixing. The returned
// Network is interchangeable with Generate's output; the LocationModel
// exposes the intermediate artefacts.
func GenerateWithLocations(st StateInfo, cfg Config) (*Network, *LocationModel, error) {
	cfg = cfg.withDefaults()
	// Stage (i): persons and households, shared with Generate; every contact
	// but the home cliques is derived below through explicit locations.
	b, _ := basePopulation(st, cfg)
	persons, households := b.persons, b.households

	r := stats.NewRNG(cfg.Seed*7778777 + uint64(st.FIPS))
	lm := &LocationModel{}

	// Residences: one location per household.
	residenceOf := make(map[int32]int32, len(households))
	for _, hh := range households {
		id := int32(len(lm.Locations))
		lm.Locations = append(lm.Locations, Location{
			ID: id, Type: LocResidence, CountyFIPS: hh.CountyFIPS, Lat: hh.Lat, Lon: hh.Lon,
		})
		residenceOf[hh.ID] = id
	}

	// Activity locations per county, sized so assignment produces the
	// same group sizes as the base generator.
	byCounty := map[int32][]int32{}
	for i := range persons {
		byCounty[persons[i].CountyFIPS] = append(byCounty[persons[i].CountyFIPS], persons[i].ID)
	}
	newLoc := func(t LocationType, county int32) int32 {
		id := int32(len(lm.Locations))
		lm.Locations = append(lm.Locations, Location{
			ID: id, Type: t, CountyFIPS: county,
			Lat: 30 + float32(r.Norm())*0.3, Lon: -95 + float32(r.Norm())*0.3,
		})
		return id
	}

	// Stage (ii)+(iii): assign activities to locations.
	type assignment struct {
		loc      int32
		start    uint16
		dur      uint16
		ctx      Context
		contacts int
	}
	perPerson := make([][]assignment, len(persons))
	// Home visits for everyone.
	for i := range persons {
		p := &persons[i]
		lm.Visits = append(lm.Visits, Visit{
			Person: p.ID, Location: residenceOf[p.HouseholdID], StartMin: 18 * 60, DurMin: 600,
		})
	}
	assignGroups := func(members []int32, lt LocationType, groupSize, contacts int, start, dur uint16) {
		var loc int32 = -1
		inLoc := 0
		for _, pid := range members {
			if loc < 0 || inLoc >= groupSize {
				loc = newLoc(lt, persons[pid].CountyFIPS)
				inLoc = 0
			}
			inLoc++
			lm.Visits = append(lm.Visits, Visit{Person: pid, Location: loc, StartMin: start, DurMin: dur})
			perPerson[pid] = append(perPerson[pid], assignment{
				loc: loc, start: start, dur: dur, ctx: lt.contextFor(), contacts: contacts,
			})
		}
	}
	// Work (statewide shuffle → commuting), school (per county), college
	// (statewide), religion (per county), shopping & other (per county).
	var workers []int32
	for i := range persons {
		p := &persons[i]
		if p.Age >= 18 && p.Age <= 64 && r.Bool(cfg.EmploymentRate) {
			workers = append(workers, p.ID)
		}
	}
	r.Shuffle(len(workers), func(i, j int) { workers[i], workers[j] = workers[j], workers[i] })
	assignGroups(workers, LocWork, 12, cfg.WorkContacts, 9*60, 480)
	var collegians []int32
	for i := range persons {
		p := &persons[i]
		if p.Age >= 18 && p.Age <= 22 && r.Bool(cfg.CollegeRate) {
			collegians = append(collegians, p.ID)
		}
	}
	assignGroups(collegians, LocCollege, 30, cfg.CollegeContacts, 10*60, 240)
	// Ascending FIPS: the loop draws from r, so map order would make the
	// network differ run to run on any region with more than one county.
	counties := make([]int32, 0, len(byCounty))
	for c := range byCounty {
		counties = append(counties, c)
	}
	slices.Sort(counties)
	for _, c := range counties {
		var students, attendees, shoppers []int32
		for _, pid := range byCounty[c] {
			a := persons[pid].Age
			if a >= 5 && a <= 17 {
				students = append(students, pid)
			}
			if r.Bool(cfg.ReligionRate) {
				attendees = append(attendees, pid)
			}
			shoppers = append(shoppers, pid)
		}
		assignGroups(students, LocSchool, 20, cfg.SchoolContacts, 8*60, 360)
		assignGroups(attendees, LocReligion, 30, cfg.ReligionContacts, 10*60, 120)
		// Shopping and other: larger venues with fewer contacts each.
		assignGroups(shoppers, LocShopping, 60, cfg.ShoppingContacts, 11*60, 30)
		assignGroups(shoppers, LocOther, 40, cfg.OtherContacts, 14*60, 60)
	}

	// Stage (iv): derive contacts by co-occupancy with sub-location
	// mixing — within each location, each visitor contacts k random
	// co-visitors (a clique for tiny locations).
	visitors := map[int32][]int32{}
	meta := map[int32]assignment{}
	for pid, as := range perPerson {
		for _, a := range as {
			visitors[a.loc] = append(visitors[a.loc], int32(pid))
			meta[a.loc] = a
		}
	}
	// Iterate locations in ID order for determinism. Each wiring pass
	// replays the same draws from its own copy of the stream.
	net, err := b.Build(func(b *Builder) {
		homeContacts(b)
		rng := *r
		for locID := int32(0); locID < int32(len(lm.Locations)); locID++ {
			group := visitors[locID]
			if len(group) < 2 {
				continue
			}
			a := meta[locID]
			groupContacts(b, &rng, group, len(group), a.ctx, a.ctx, a.contacts, a.start, a.dur)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return net, lm, nil
}

// LocationStats summarizes a location model for reporting and tests.
type LocationStats struct {
	ByType     [NumLocationTypes]int
	MeanVisits float64
}

// Stats computes summary statistics.
func (lm *LocationModel) Stats() LocationStats {
	var out LocationStats
	for _, l := range lm.Locations {
		out.ByType[l.Type]++
	}
	if len(lm.Locations) > 0 {
		out.MeanVisits = float64(len(lm.Visits)) / float64(len(lm.Locations))
	}
	return out
}

// Distance returns the great-circle distance in kilometres between two
// locations (haversine).
func Distance(a, b Location) float64 {
	const earthRadiusKm = 6371
	lat1 := float64(a.Lat) * math.Pi / 180
	lat2 := float64(b.Lat) * math.Pi / 180
	dLat := lat2 - lat1
	dLon := (float64(b.Lon) - float64(a.Lon)) * math.Pi / 180
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}
