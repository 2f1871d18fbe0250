package lhs

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSampleShape(t *testing.T) {
	r := stats.NewRNG(1)
	ranges := []Range{{Name: "tau", Lo: 0, Hi: 1}, {Name: "symp", Lo: 0.2, Hi: 0.8}}
	d, err := Sample(r, 100, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 100 || len(d[0]) != 2 {
		t.Fatalf("design shape %dx%d", len(d), len(d[0]))
	}
}

func TestSampleWithinRanges(t *testing.T) {
	r := stats.NewRNG(2)
	ranges := []Range{{Lo: -5, Hi: 5}, {Lo: 100, Hi: 200}}
	d, err := Sample(r, 50, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d {
		if row[0] < -5 || row[0] > 5 || row[1] < 100 || row[1] > 200 {
			t.Fatalf("point outside ranges: %v", row)
		}
	}
}

// The Latin property: each of the n strata is hit exactly once per dimension.
func TestLatinProperty(t *testing.T) {
	r := stats.NewRNG(3)
	n := 40
	ranges := []Range{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 4}, {Lo: -1, Hi: 0}}
	d, err := Sample(r, n, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for c, rg := range ranges {
		strata := make([]int, n)
		for _, row := range d {
			u := (row[c] - rg.Lo) / (rg.Hi - rg.Lo)
			s := int(u * float64(n))
			if s == n {
				s = n - 1
			}
			strata[s]++
		}
		for s, count := range strata {
			if count != 1 {
				t.Fatalf("dim %d stratum %d hit %d times", c, s, count)
			}
		}
	}
}

func TestLatinPropertyQuick(t *testing.T) {
	err := quick.Check(func(seed uint16, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := stats.NewRNG(uint64(seed))
		d, err := Sample(r, n, []Range{{Lo: 0, Hi: 1}})
		if err != nil {
			return false
		}
		vals := make([]float64, n)
		for i, row := range d {
			vals[i] = row[0]
		}
		sort.Float64s(vals)
		for i, v := range vals {
			lo := float64(i) / float64(n)
			hi := float64(i+1) / float64(n)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleErrors(t *testing.T) {
	r := stats.NewRNG(4)
	if _, err := Sample(r, 0, []Range{{Lo: 0, Hi: 1}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Sample(r, 5, nil); err == nil {
		t.Error("no ranges accepted")
	}
	if _, err := Sample(r, 5, []Range{{Lo: 1, Hi: 0}}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestDegenerateRange(t *testing.T) {
	r := stats.NewRNG(5)
	d, err := Sample(r, 10, []Range{{Lo: 3, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d {
		if row[0] != 3 {
			t.Fatalf("degenerate range produced %v", row[0])
		}
	}
}

func TestDesignIsSpaceFilling(t *testing.T) {
	// With n=100 points in 1-d, sorted gaps must all be < 2/n.
	r := stats.NewRNG(7)
	d, err := Sample(r, 100, []Range{{Lo: 0, Hi: 1}})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(d))
	for i, row := range d {
		vals[i] = row[0]
	}
	sort.Float64s(vals)
	for i := 1; i < len(vals); i++ {
		if gap := vals[i] - vals[i-1]; gap > 2.0/100+1e-9 {
			t.Fatalf("gap %v too large for LHS", gap)
		}
	}
	if math.Abs(stats.Mean(vals)-0.5) > 0.02 {
		t.Fatalf("design mean %v", stats.Mean(vals))
	}
}
