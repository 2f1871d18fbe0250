// Package capacity implements the hospital-capacity analysis the pipeline
// delivers to the state hospital referral regions: forecast hospital and
// ventilator demand compared against bed and ventilator counts ("Hospital
// bed and ventilator counts obtained from individual hospitals, as well as
// from the 2018 American Hospital Association (AHA) estimates"), with
// overflow detection — the product behind "guiding allocation of scarce
// resources and assessing depletion of current resources".
package capacity

import (
	"fmt"

	"repro/internal/synthpop"
)

// Resources is a region's medical surge capacity.
type Resources struct {
	Region      string
	Beds        int
	ICUBeds     int
	Ventilators int
}

// FromAHA estimates a state's capacity from its population using the 2018
// AHA national ratios: ≈2.4 staffed beds, ≈0.26 ICU beds and ≈0.19
// ventilators per 1,000 residents.
func FromAHA(st synthpop.StateInfo) Resources {
	return Resources{
		Region:      st.Code,
		Beds:        int(float64(st.Population) * 2.4 / 1000),
		ICUBeds:     int(float64(st.Population) * 0.26 / 1000),
		Ventilators: int(float64(st.Population) * 0.19 / 1000),
	}
}

// Demand is a daily occupancy forecast for the two constrained resources.
type Demand struct {
	// Hospitalized[d] and Ventilated[d] are the occupancy series
	// (median, or any scenario path).
	Hospitalized []float64
	Ventilated   []float64
}

// Report is the overflow analysis of one demand path against capacity.
type Report struct {
	Region string
	// COVID patients can draw on a fraction of total capacity (the rest
	// serves routine demand); the analysis applies AvailableFraction.
	AvailableFraction float64

	PeakHospitalized        float64
	PeakHospitalDay         int
	PeakVentilated          float64
	PeakVentilatorDay       int
	HospitalOverflowDays    int
	VentilatorOverflowDays  int
	FirstHospitalOverflow   int // day index of first overflow, -1 when never
	FirstVentOverflow       int
	HospitalUtilizationPeak float64 // peak demand / available beds
	VentUtilizationPeak     float64
}

// Analyze compares a demand path against the region's resources.
func Analyze(res Resources, d Demand, availableFraction float64) (*Report, error) {
	if len(d.Hospitalized) == 0 || len(d.Hospitalized) != len(d.Ventilated) {
		return nil, fmt.Errorf("capacity: demand series empty or mismatched (%d vs %d)",
			len(d.Hospitalized), len(d.Ventilated))
	}
	if availableFraction <= 0 || availableFraction > 1 {
		availableFraction = 0.4 // typical surge allocation for COVID
	}
	beds := float64(res.Beds) * availableFraction
	vents := float64(res.Ventilators) * availableFraction
	if beds <= 0 || vents <= 0 {
		return nil, fmt.Errorf("capacity: region %s has no capacity configured", res.Region)
	}
	rep := &Report{
		Region: res.Region, AvailableFraction: availableFraction,
		FirstHospitalOverflow: -1, FirstVentOverflow: -1,
	}
	for day := range d.Hospitalized {
		h, v := d.Hospitalized[day], d.Ventilated[day]
		if h > rep.PeakHospitalized {
			rep.PeakHospitalized = h
			rep.PeakHospitalDay = day
		}
		if v > rep.PeakVentilated {
			rep.PeakVentilated = v
			rep.PeakVentilatorDay = day
		}
		if h > beds {
			rep.HospitalOverflowDays++
			if rep.FirstHospitalOverflow < 0 {
				rep.FirstHospitalOverflow = day
			}
		}
		if v > vents {
			rep.VentilatorOverflowDays++
			if rep.FirstVentOverflow < 0 {
				rep.FirstVentOverflow = day
			}
		}
	}
	rep.HospitalUtilizationPeak = rep.PeakHospitalized / beds
	rep.VentUtilizationPeak = rep.PeakVentilated / vents
	return rep, nil
}
