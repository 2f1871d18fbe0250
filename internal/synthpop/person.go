package synthpop

import (
	"repro/internal/disease"
	"repro/internal/stats"
)

// Gender is a person trait from the paper's population CSV schema.
type Gender uint8

// Gender values.
const (
	Female Gender = iota
	Male
)

// Person carries the traits of one synthetic individual (the paper's person
// CSV columns: household ID, age and age group, gender, county code, home
// coordinates).
type Person struct {
	ID          int32
	HouseholdID int32
	Age         uint8
	Gender      Gender
	CountyFIPS  int32
	HomeLat     float32
	HomeLon     float32
}

// AgeGroup returns the Table III age band for the person.
func (p *Person) AgeGroup() disease.AgeGroup { return disease.AgeGroupOf(int(p.Age)) }

// Household groups the persons residing at one dwelling unit. Its members
// are the Size consecutive person IDs starting at First.
type Household struct {
	ID          int32
	CountyFIPS  int32
	Lat, Lon    float32
	First, Size int32
}

// householdSizeDist approximates the US household size distribution
// (ACS 2019): the mean is ≈ 2.5 persons per household.
var householdSizeDist = struct {
	sizes []int
	probs []float64
}{
	sizes: []int{1, 2, 3, 4, 5, 6, 7},
	probs: []float64{0.28, 0.35, 0.15, 0.13, 0.06, 0.02, 0.01},
}

// sampleHouseholdSize draws a household size.
func sampleHouseholdSize(r *stats.RNG) int {
	return householdSizeDist.sizes[r.Choice(householdSizeDist.probs)]
}

// agePyramid approximates the US age distribution over the five Table III
// bands, with uniform ages within bands.
var agePyramid = struct {
	probs [disease.NumAgeGroups]float64
	lo    [disease.NumAgeGroups]int
	hi    [disease.NumAgeGroups]int
}{
	probs: [disease.NumAgeGroups]float64{0.059, 0.163, 0.424, 0.192, 0.162},
	lo:    [disease.NumAgeGroups]int{0, 5, 18, 50, 65},
	hi:    [disease.NumAgeGroups]int{4, 17, 49, 64, 90},
}

// sampleAge draws an age in years from the pyramid.
func sampleAge(r *stats.RNG) uint8 {
	g := r.Choice(agePyramid.probs[:])
	lo, hi := agePyramid.lo[g], agePyramid.hi[g]
	return uint8(lo + r.Intn(hi-lo+1))
}

// sampleHouseholdAges draws the ages of a household of size n: the first
// one or two members are adults (a household has at least one adult), and
// remaining slots follow the overall pyramid restricted as needed.
func sampleHouseholdAges(r *stats.RNG, n int) []uint8 {
	ages := make([]uint8, n)
	ages[0] = uint8(18 + r.Intn(73)) // head of household: 18–90
	for i := 1; i < n; i++ {
		ages[i] = sampleAge(r)
	}
	return ages
}
