package epihiper

import (
	"testing"

	"repro/internal/disease"
	"repro/internal/stats"
)

// TestWaningImmunityReinfects exercises the RxFailure path of Table IV:
// with fast-waning immunity, some individuals are infected more than once,
// and the epidemic persists longer than under permanent immunity.
func TestWaningImmunityReinfects(t *testing.T) {
	net := testNetwork(t, 60)
	exposures := map[int32]int{}
	cfg := baseConfig(net, 4000)
	cfg.Days = 200
	cfg.Model = covid19Waning(25) // fast waning for the test
	cfg.Recorder = RecorderFunc(func(tick int, pid int32, from, to disease.State, infector int32) {
		if to == disease.Exposed {
			exposures[pid]++
		}
	})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	reinfected := 0
	for _, n := range exposures {
		if n > 1 {
			reinfected++
		}
	}
	if reinfected == 0 {
		t.Fatal("no reinfections despite 25-day waning over 200 days")
	}
	// Reinfections must come from the RxFailure state.
	sawRxFailure := false
	for pid := int32(0); int(pid) < net.NumNodes(); pid++ {
		if sim.health[pid] == disease.RxFailure {
			sawRxFailure = true
			break
		}
	}
	if !sawRxFailure && reinfected < 2 {
		t.Log("note: all RxFailure individuals were reinfected or recovered by the horizon")
	}
	// More total infections than under permanent immunity.
	cfg2 := baseConfig(net, 4000)
	cfg2.Days = 200
	perm, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	permRes, err := perm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfections <= permRes.TotalInfections {
		t.Fatalf("waning (%d) should exceed permanent immunity (%d)",
			res.TotalInfections, permRes.TotalInfections)
	}
}

func TestWaningModelValidates(t *testing.T) {
	if err := covid19Waning(0).Validate(); err != nil {
		t.Fatal(err)
	}
	m := covid19Waning(90)
	if len(m.Transitions(disease.Recovered)) == 0 {
		t.Fatal("Recovered should wane")
	}
	if !m.IsSusceptible(disease.RxFailure) {
		t.Fatal("RxFailure must be susceptible")
	}
}

// covid19Waning returns the COVID-19 model with waning immunity: Recovered
// individuals return to the susceptible RxFailure state (Table IV gives
// RxFailure susceptibility 1.0) after a dwell of waningDays ± 20%. This is
// the model variant behind reinfection and endemic-regime studies — the
// paper's conclusion anticipates "a second, or possibly third, wave".
func covid19Waning(waningDays float64) *disease.Model {
	m := disease.COVID19()
	m.Name = "covid19-waning"
	if waningDays <= 0 {
		waningDays = 180
	}
	tr := disease.Transition{From: disease.Recovered, To: disease.RxFailure}
	for ag := range tr.Prob {
		tr.Prob[ag] = 1
		tr.Dwell[ag] = stats.TruncNormal{
			Mean: waningDays, SD: 0.2 * waningDays, Lo: 7, Hi: 5 * waningDays,
		}
	}
	m.AddTransition(tr)
	return m
}
