package surveillance

import (
	"testing"

	"repro/internal/synthpop"
)

func TestGenerateStateShape(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	truth, err := GenerateState(va, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if truth.Days != 210 {
		t.Fatalf("days %d want 210 (over 200 days of entries)", truth.Days)
	}
	if len(truth.Counties) != va.Counties {
		t.Fatalf("%d county series want %d", len(truth.Counties), va.Counties)
	}
	for _, c := range truth.Counties {
		if len(c.Daily) != truth.Days {
			t.Fatalf("county %d series length %d", c.FIPS, len(c.Daily))
		}
		for d, v := range c.Daily {
			if v < 0 {
				t.Fatalf("negative count %v on day %d", v, d)
			}
			if v != float64(int(v)) {
				t.Fatalf("non-integral count %v", v)
			}
		}
	}
}

func TestGenerateStateDeterministic(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	a, _ := GenerateState(va, DefaultConfig(9))
	b, _ := GenerateState(va, DefaultConfig(9))
	for i := range a.Counties {
		for d := range a.Counties[i].Daily {
			if a.Counties[i].Daily[d] != b.Counties[i].Daily[d] {
				t.Fatalf("nondeterministic at county %d day %d", i, d)
			}
		}
	}
	c, _ := GenerateState(va, DefaultConfig(10))
	diff := false
	for i := range a.Counties {
		for d := range a.Counties[i].Daily {
			if a.Counties[i].Daily[d] != c.Counties[i].Daily[d] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds identical")
	}
}

func TestCumulativeMonotoneAndPositive(t *testing.T) {
	ca, _ := synthpop.StateByCode("CA")
	truth, _ := GenerateState(ca, DefaultConfig(2))
	cum := truth.StateCumulative()
	for d := 1; d < len(cum); d++ {
		if cum[d] < cum[d-1] {
			t.Fatal("state cumulative decreased")
		}
	}
	if cum[len(cum)-1] <= 0 {
		t.Fatal("no cases generated for CA")
	}
	// Early days (before community spread) should be near zero.
	if cum[10] > cum[len(cum)-1]*0.01 {
		t.Fatalf("day 10 already has %v of %v cases", cum[10], cum[len(cum)-1])
	}
}

func TestCountyOnsetsStaggered(t *testing.T) {
	tx, _ := synthpop.StateByCode("TX")
	truth, _ := GenerateState(tx, DefaultConfig(3))
	early := truth.CountiesWithCases(60)
	late := truth.CountiesWithCases(200)
	if early >= late {
		t.Fatalf("county onsets not staggered: %d at day 60, %d at day 200", early, late)
	}
	if late < tx.Counties/2 {
		t.Fatalf("only %d/%d counties ever see cases", late, tx.Counties)
	}
}

func TestBiggerStatesMoreCases(t *testing.T) {
	ca, _ := synthpop.StateByCode("CA")
	wy, _ := synthpop.StateByCode("WY")
	tCA, _ := GenerateState(ca, DefaultConfig(4))
	tWY, _ := GenerateState(wy, DefaultConfig(4))
	cCA := tCA.StateCumulative()
	cWY := tWY.StateCumulative()
	if cCA[len(cCA)-1] <= cWY[len(cWY)-1] {
		t.Fatalf("CA (%v) should outnumber WY (%v)", cCA[len(cCA)-1], cWY[len(cWY)-1])
	}
}

func TestGenerateUSCountyCount(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Days = 50 // keep the test fast
	us, err := GenerateUS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 51 {
		t.Fatalf("%d states want 51", len(us))
	}
	counties := 0
	for _, st := range us {
		counties += len(st.Counties)
	}
	if counties < 3100 || counties > 3200 {
		t.Fatalf("%d counties want ≈3140", counties)
	}
}

func TestTruncateTo(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	truth, _ := GenerateState(va, DefaultConfig(6))
	cut := truth.TruncateTo(80)
	if cut.Days != 80 || len(cut.Counties[0].Daily) != 80 {
		t.Fatal("truncation wrong")
	}
	// Original unchanged; truncation beyond horizon clamps.
	if truth.Days != 210 {
		t.Fatal("truncation mutated original")
	}
	if truth.TruncateTo(999).Days != 210 {
		t.Fatal("over-truncation not clamped")
	}
	// Values preserved.
	for d := 0; d < 80; d++ {
		if cut.Counties[0].Daily[d] != truth.Counties[0].Daily[d] {
			t.Fatal("truncation changed values")
		}
	}
}

func TestCountySeriesCumulative(t *testing.T) {
	c := CountySeries{Daily: []float64{1, 0, 2, 3}}
	cum := c.cumulative()
	want := []float64{1, 1, 3, 6}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative %v want %v", cum, want)
		}
	}
}

func TestGenerateStateErrors(t *testing.T) {
	va, _ := synthpop.StateByCode("VA")
	if _, err := GenerateState(va, Config{Days: 0}); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

// cumulative returns the county's cumulative series.
func (c *CountySeries) cumulative() []float64 {
	out := make([]float64, len(c.Daily))
	acc := 0.0
	for i, v := range c.Daily {
		acc += v
		out[i] = acc
	}
	return out
}
