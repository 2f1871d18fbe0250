package capacity

import (
	"math"
	"testing"

	"repro/internal/synthpop"
)

func TestFromAHA(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	res := FromAHA(va)
	// VA ≈ 8.5M → ≈20,500 beds, ≈2,200 ICU, ≈1,600 ventilators.
	if res.Beds < 15000 || res.Beds > 25000 {
		t.Fatalf("VA beds %d implausible", res.Beds)
	}
	if res.ICUBeds >= res.Beds || res.Ventilators >= res.ICUBeds*2 {
		t.Fatalf("capacity ordering wrong: %+v", res)
	}
	if res.Region != "VA" {
		t.Fatal("region lost")
	}
}

func demandPath(days int, peakH, peakV float64, peakDay int) Demand {
	d := Demand{Hospitalized: make([]float64, days), Ventilated: make([]float64, days)}
	for i := 0; i < days; i++ {
		shape := math.Exp(-math.Pow(float64(i-peakDay)/15, 2))
		d.Hospitalized[i] = peakH * shape
		d.Ventilated[i] = peakV * shape
	}
	return d
}

func TestAnalyzeNoOverflow(t *testing.T) {
	res := Resources{Region: "VA", Beds: 1000, Ventilators: 100, ICUBeds: 150}
	d := demandPath(120, 200, 20, 60) // well under 40% of capacity
	rep, err := Analyze(res, d, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HospitalOverflowDays != 0 || rep.VentilatorOverflowDays != 0 {
		t.Fatalf("unexpected overflow: %+v", rep)
	}
	if rep.FirstHospitalOverflow != -1 || rep.FirstVentOverflow != -1 {
		t.Fatal("first-overflow days should be -1")
	}
	if rep.PeakHospitalDay != 60 {
		t.Fatalf("peak day %d want 60", rep.PeakHospitalDay)
	}
	if rep.HospitalUtilizationPeak <= 0 || rep.HospitalUtilizationPeak >= 1 {
		t.Fatalf("utilization %v", rep.HospitalUtilizationPeak)
	}
}

func TestAnalyzeOverflow(t *testing.T) {
	res := Resources{Region: "VA", Beds: 1000, Ventilators: 100, ICUBeds: 150}
	d := demandPath(120, 800, 90, 60) // ventilator demand 90 > 100×0.4
	rep, err := Analyze(res, d, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HospitalOverflowDays == 0 {
		t.Fatal("hospital overflow not detected (800 > 400)")
	}
	if rep.VentilatorOverflowDays == 0 {
		t.Fatal("ventilator overflow not detected (90 > 40)")
	}
	if rep.FirstHospitalOverflow < 0 || rep.FirstHospitalOverflow >= rep.PeakHospitalDay {
		t.Fatalf("first overflow day %d should precede the peak %d",
			rep.FirstHospitalOverflow, rep.PeakHospitalDay)
	}
	if rep.HospitalUtilizationPeak <= 1 {
		t.Fatalf("peak utilization %v should exceed 1", rep.HospitalUtilizationPeak)
	}
	if rep.FirstVentOverflow <= 0 || rep.FirstVentOverflow >= 60 {
		t.Fatalf("first ventilator overflow day %d implausible", rep.FirstVentOverflow)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	res := Resources{Region: "VA", Beds: 100, Ventilators: 10}
	if _, err := Analyze(res, Demand{}, 0.4); err == nil {
		t.Error("empty demand accepted")
	}
	if _, err := Analyze(res, Demand{Hospitalized: []float64{1}, Ventilated: []float64{1, 2}}, 0.4); err == nil {
		t.Error("mismatched series accepted")
	}
	if _, err := Analyze(Resources{Region: "XX"}, demandPath(10, 1, 1, 5), 0.4); err == nil {
		t.Error("zero capacity accepted")
	}
	// Out-of-range fraction falls back to default rather than failing.
	if rep, err := Analyze(res, demandPath(10, 1, 1, 5), 7); err != nil || rep.AvailableFraction != 0.4 {
		t.Error("bad fraction not defaulted")
	}
}
