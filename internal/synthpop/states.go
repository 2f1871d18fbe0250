// Package synthpop generates the synthetic populations and social contact
// networks the simulations run on. It stands in for the US-scale population
// pipeline of the paper's Appendix C (PUMS/IPF base population, activity
// assignment, location assignment, co-occupancy contact network): the
// statistical generator here produces the same artefacts — persons with
// traits, households, context-labelled contact edges, per-state networks —
// at a configurable fraction of real scale (DESIGN.md, substitutions).
package synthpop

import "fmt"

// StateInfo describes one of the 51 regions (50 states + DC).
type StateInfo struct {
	Code       string // postal code, e.g. "VA"
	Name       string
	FIPS       int // state FIPS code
	Population int // 2019 resident population estimate
	Counties   int // number of counties (or equivalents)
}

// States lists the 51 regions in postal-code order. Populations are 2019
// Census estimates (the vintage the paper's networks were built from);
// county counts sum to ~3140, matching the paper's "3140 counties".
var States = []StateInfo{
	{"AK", "Alaska", 2, 731545, 29},
	{"AL", "Alabama", 1, 4903185, 67},
	{"AR", "Arkansas", 5, 3017804, 75},
	{"AZ", "Arizona", 4, 7278717, 15},
	{"CA", "California", 6, 39512223, 58},
	{"CO", "Colorado", 8, 5758736, 64},
	{"CT", "Connecticut", 9, 3565287, 8},
	{"DC", "District of Columbia", 11, 705749, 1},
	{"DE", "Delaware", 10, 973764, 3},
	{"FL", "Florida", 12, 21477737, 67},
	{"GA", "Georgia", 13, 10617423, 159},
	{"HI", "Hawaii", 15, 1415872, 5},
	{"IA", "Iowa", 19, 3155070, 99},
	{"ID", "Idaho", 16, 1787065, 44},
	{"IL", "Illinois", 17, 12671821, 102},
	{"IN", "Indiana", 18, 6732219, 92},
	{"KS", "Kansas", 20, 2913314, 105},
	{"KY", "Kentucky", 21, 4467673, 120},
	{"LA", "Louisiana", 22, 4648794, 64},
	{"MA", "Massachusetts", 25, 6892503, 14},
	{"MD", "Maryland", 24, 6045680, 24},
	{"ME", "Maine", 23, 1344212, 16},
	{"MI", "Michigan", 26, 9986857, 83},
	{"MN", "Minnesota", 27, 5639632, 87},
	{"MO", "Missouri", 29, 6137428, 115},
	{"MS", "Mississippi", 28, 2976149, 82},
	{"MT", "Montana", 30, 1068778, 56},
	{"NC", "North Carolina", 37, 10488084, 100},
	{"ND", "North Dakota", 38, 762062, 53},
	{"NE", "Nebraska", 31, 1934408, 93},
	{"NH", "New Hampshire", 33, 1359711, 10},
	{"NJ", "New Jersey", 34, 8882190, 21},
	{"NM", "New Mexico", 35, 2096829, 33},
	{"NV", "Nevada", 32, 3080156, 17},
	{"NY", "New York", 36, 19453561, 62},
	{"OH", "Ohio", 39, 11689100, 88},
	{"OK", "Oklahoma", 40, 3956971, 77},
	{"OR", "Oregon", 41, 4217737, 36},
	{"PA", "Pennsylvania", 42, 12801989, 67},
	{"RI", "Rhode Island", 44, 1059361, 5},
	{"SC", "South Carolina", 45, 5148714, 46},
	{"SD", "South Dakota", 46, 884659, 66},
	{"TN", "Tennessee", 47, 6829174, 95},
	{"TX", "Texas", 48, 28995881, 254},
	{"UT", "Utah", 49, 3205958, 29},
	{"VA", "Virginia", 51, 8535519, 133},
	{"VT", "Vermont", 50, 623989, 14},
	{"WA", "Washington", 53, 7614893, 39},
	{"WI", "Wisconsin", 55, 5822434, 72},
	{"WV", "West Virginia", 54, 1792147, 55},
	{"WY", "Wyoming", 56, 578759, 23},
}

// StateByCode returns the StateInfo for a postal code.
func StateByCode(code string) (StateInfo, error) {
	for _, s := range States {
		if s.Code == code {
			return s, nil
		}
	}
	return StateInfo{}, fmt.Errorf("synthpop: unknown state %q", code)
}

// CountyFIPS builds a synthetic 5-digit county FIPS code from a state FIPS
// and a county index (1-based odd numbering like real FIPS codes).
func CountyFIPS(stateFIPS, countyIndex int) int {
	return stateFIPS*1000 + countyIndex*2 + 1
}
