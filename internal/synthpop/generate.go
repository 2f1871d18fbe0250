package synthpop

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/stats"
)

// Config controls population and network synthesis.
type Config struct {
	// Scale is the down-scaling factor: one synthetic person represents
	// Scale real residents. The paper runs at Scale=1 (300M persons);
	// the default here is 1000, giving ≈330k persons nationally.
	Scale int
	// Seed drives all randomness. Networks are deterministic in
	// (Seed, state), independent of generation order.
	Seed uint64
	// MinPersons floors tiny states so every region has a usable network.
	MinPersons int

	// Contact structure knobs (defaults tuned to reproduce the paper's
	// ≈26 mean degree and Figure 6 node/edge proportions).
	EmploymentRate   float64 // fraction of 18–64 adults employed
	CollegeRate      float64 // fraction of 18–22 attending college
	ReligionRate     float64 // fraction attending weekly services
	WorkContacts     int     // per-worker contacts within workplace
	SchoolContacts   int     // per-student contacts within school class
	CollegeContacts  int     // per-student contacts within college group
	ReligionContacts int     // per-attendee contacts within congregation
	ShoppingContacts int     // random shopping contacts initiated per person
	OtherContacts    int     // random "other" contacts initiated per person
}

// DefaultConfig returns the standard 1:1000 configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Scale:            1000,
		Seed:             seed,
		MinPersons:       200,
		EmploymentRate:   0.62,
		CollegeRate:      0.45,
		ReligionRate:     0.35,
		WorkContacts:     8,
		SchoolContacts:   12,
		CollegeContacts:  8,
		ReligionContacts: 6,
		ShoppingContacts: 3,
		OtherContacts:    5,
	}
}

// withDefaults fills zero-valued knobs from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Seed)
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.MinPersons <= 0 {
		c.MinPersons = d.MinPersons
	}
	if c.EmploymentRate == 0 {
		c.EmploymentRate = d.EmploymentRate
	}
	if c.CollegeRate == 0 {
		c.CollegeRate = d.CollegeRate
	}
	if c.ReligionRate == 0 {
		c.ReligionRate = d.ReligionRate
	}
	if c.WorkContacts == 0 {
		c.WorkContacts = d.WorkContacts
	}
	if c.SchoolContacts == 0 {
		c.SchoolContacts = d.SchoolContacts
	}
	if c.CollegeContacts == 0 {
		c.CollegeContacts = d.CollegeContacts
	}
	if c.ReligionContacts == 0 {
		c.ReligionContacts = d.ReligionContacts
	}
	if c.ShoppingContacts == 0 {
		c.ShoppingContacts = d.ShoppingContacts
	}
	if c.OtherContacts == 0 {
		c.OtherContacts = d.OtherContacts
	}
	return c
}

// basePopulation is stage (i) of both generators: it draws the region's
// households and persons. It returns them with a builder over them and the
// RNG, positioned after the last person's draws, for the generator that goes
// on to wire the contexts from the same stream. cfg must have its defaults
// filled.
func basePopulation(st StateInfo, cfg Config) (*Builder, *stats.RNG) {
	n := st.Population / cfg.Scale
	if n < cfg.MinPersons {
		n = cfg.MinPersons
	}
	r := stats.NewRNG(cfg.Seed*1000003 + uint64(st.FIPS))

	// County weights follow a Zipf-like profile so each state has a few
	// populous counties and a long rural tail, mirroring real county
	// population skew.
	countyWeights := make([]float64, st.Counties)
	for i := range countyWeights {
		countyWeights[i] = 1 / math.Pow(float64(i+1), 0.8)
	}

	// Pseudo-geography: a state anchor derived from FIPS with county
	// offsets, enough to give every person plausible coordinates.
	stateLat := 30 + float32(st.FIPS%20)
	stateLon := -120 + float32(st.FIPS%45)

	// --- Households and persons, in the order the stream draws them ---
	drawn := make([]Person, 0, n)
	// Sized for householdSizeDist's mean of 2.44 persons, with 6% to spare:
	// growing a slice by appending leaves several times its size behind as
	// garbage, which would set the peak of the whole build.
	households := make([]Household, 0, n*100/230+16)
	for len(drawn) < n {
		size := sampleHouseholdSize(r)
		if len(drawn)+size > n {
			size = n - len(drawn)
		}
		county := r.Choice(countyWeights)
		fips := int32(CountyFIPS(st.FIPS, county))
		lat := stateLat + float32(county)/100 + float32(r.Norm())*0.05
		lon := stateLon + float32(county)/80 + float32(r.Norm())*0.05
		households = append(households, Household{
			CountyFIPS: fips, Lat: lat, Lon: lon, First: int32(len(drawn)), Size: int32(size),
		})
		for _, age := range sampleHouseholdAges(r, size) {
			g := Female
			if r.Bool(0.492) {
				g = Male
			}
			drawn = append(drawn, Person{
				Age: age, Gender: g, CountyFIPS: fips, HomeLat: lat, HomeLon: lon,
			})
		}
	}

	// --- County order ---
	// The simulator shards a network by cutting the person-ID range, and a
	// shard pays for every contact that leaves it. So households are numbered
	// by ascending county (draw order inside a county) and persons household
	// by household, before any contact is wired: an ID range is then a set of
	// whole counties, and the per-county contexts stay inside it.
	slices.SortStableFunc(households, func(a, b Household) int { return cmp.Compare(a.CountyFIPS, b.CountyFIPS) })
	persons := make([]Person, 0, n)
	for i := range households {
		hh := &households[i]
		members := drawn[hh.First : hh.First+hh.Size]
		hh.ID, hh.First = int32(i), int32(len(persons))
		for _, p := range members {
			p.ID, p.HouseholdID = int32(len(persons)), hh.ID
			persons = append(persons, p)
		}
	}

	b := NewBuilder(st.Code, persons)
	b.households = households
	return b, r
}

// homeContacts wires every household as a home-contact clique, the first
// contacts both generators add.
func homeContacts(b *Builder) {
	for _, hh := range b.households {
		for u := hh.First; u < hh.First+hh.Size; u++ {
			for v := u + 1; v < hh.First+hh.Size; v++ {
				b.AddContact(u, v, CtxHome, CtxHome, 18*60, 600, 1)
			}
		}
	}
}

// clique wires a contact between every pair of the group.
func clique(b *Builder, group []int32, cSrc, cDst Context, start, dur uint16) {
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			b.AddContact(group[i], group[j], cSrc, cDst, start, dur, 1)
		}
	}
}

// Generate builds the synthetic population and contact network for one
// region. The result is deterministic in (cfg.Seed, st.FIPS).
func Generate(st StateInfo, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	b, drawn := basePopulation(st, cfg)
	persons := b.persons

	// --- Group-based contexts ---
	countyOf := func(p *Person) int {
		return min(int(p.CountyFIPS)%1000, st.Counties)
	}
	// The lists are sized before they are filled, so each is allocated once.
	sizes := make([]int, st.Counties+1)
	for i := range persons {
		sizes[countyOf(&persons[i])]++
	}
	byCounty := make([][]int32, st.Counties+1)
	for c := range byCounty {
		byCounty[c] = make([]int32, 0, sizes[c])
	}
	for i := range persons {
		c := countyOf(&persons[i])
		byCounty[c] = append(byCounty[c], persons[i].ID)
	}
	// Every member list below fits one buffer of a person per slot, reused
	// by both passes, so wiring allocates nothing.
	buf := make([]int32, 0, len(persons))
	return b.Build(func(b *Builder) {
		// Each pass replays the same draws from its own copy of the stream.
		rng := *drawn
		wireContexts(b, &rng, cfg, byCounty, buf)
	})
}

// wireContexts adds Generate's contacts: the household cliques, then every
// other context drawn from r. Each member list it builds is used up before
// the next, so all of them share buf, whose capacity is the person count.
func wireContexts(b *Builder, r *stats.RNG, cfg Config, byCounty [][]int32, buf []int32) {
	persons := b.persons
	homeContacts(b)

	// Workers: adults 18–64, employed at the configured rate, shuffled
	// statewide and cut into workplaces of 12: a workplace draws from every
	// county (commuting). With college below, these are the contacts that
	// cross a shard line in the county-ordered layout.
	workers := buf[:0]
	for _, p := range persons {
		if p.Age >= 18 && p.Age <= 64 && r.Bool(cfg.EmploymentRate) {
			workers = append(workers, p.ID)
		}
	}
	r.Shuffle(len(workers), func(i, j int) { workers[i], workers[j] = workers[j], workers[i] })
	groupContacts(b, r, workers, 12, CtxWork, CtxWork, cfg.WorkContacts, 9*60, 480)

	// School: ages 5–17 in classes of ≈20 within their county.
	for _, members := range byCounty {
		students := buf[:0]
		for _, id := range members {
			a := persons[id].Age
			if a >= 5 && a <= 17 {
				students = append(students, id)
			}
		}
		groupContacts(b, r, students, 20, CtxSchool, CtxSchool, cfg.SchoolContacts, 8*60, 360)
	}

	// College: ages 18–22 statewide.
	collegians := buf[:0]
	for _, p := range persons {
		if p.Age >= 18 && p.Age <= 22 && r.Bool(cfg.CollegeRate) {
			collegians = append(collegians, p.ID)
		}
	}
	r.Shuffle(len(collegians), func(i, j int) { collegians[i], collegians[j] = collegians[j], collegians[i] })
	groupContacts(b, r, collegians, 30, CtxCollege, CtxCollege, cfg.CollegeContacts, 10*60, 240)

	// Religion: congregations of ≈30 within county.
	for _, members := range byCounty {
		attendees := buf[:0]
		for _, id := range members {
			if r.Bool(cfg.ReligionRate) {
				attendees = append(attendees, id)
			}
		}
		groupContacts(b, r, attendees, 30, CtxReligion, CtxReligion, cfg.ReligionContacts, 10*60, 120)
	}

	// Shopping and other: random intra-county contacts. Shopping pairs a
	// shopper with a (possibly working) counterpart, so contexts differ
	// across the edge, matching the paper's shopper/grocer example.
	for _, members := range byCounty {
		m := len(members)
		if m < 2 {
			continue
		}
		for _, id := range members {
			for k := 0; k < cfg.ShoppingContacts; k++ {
				o := members[r.Intn(m)]
				if o == id {
					continue
				}
				dst := CtxShopping
				if r.Bool(0.5) {
					dst = CtxWork // store staff
				}
				b.AddContact(id, o, CtxShopping, dst, uint16(10*60+r.Intn(9*60)), 30, 1)
			}
			for k := 0; k < cfg.OtherContacts; k++ {
				o := members[r.Intn(m)]
				if o == id {
					continue
				}
				b.AddContact(id, o, CtxOther, CtxOther, uint16(8*60+r.Intn(12*60)), 60, 1)
			}
		}
	}
}

// groupContacts partitions members into sequential groups of approximately
// groupSize and wires contacts within each group: a clique for tiny groups,
// otherwise k random partners per member.
func groupContacts(b *Builder, r *stats.RNG, members []int32, groupSize int, cSrc, cDst Context, k int, start, dur uint16) {
	for lo := 0; lo < len(members); lo += groupSize {
		hi := lo + groupSize
		if hi > len(members) {
			hi = len(members)
		}
		group := members[lo:hi]
		if len(group) < 2 {
			continue
		}
		if len(group) <= 6 {
			clique(b, group, cSrc, cDst, start, dur)
			continue
		}
		for i, u := range group {
			for c := 0; c < k/2+1 && c < len(group)-1; c++ {
				j := r.Intn(len(group))
				if j == i {
					continue
				}
				b.AddContact(u, group[j], cSrc, cDst, start, dur, 1)
			}
		}
	}
}
