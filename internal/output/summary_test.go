package output

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/disease"
)

func TestSummaryCSVRoundTrip(t *testing.T) {
	net := testNet(t)
	_, agg, _ := runLogged(t, net, 40)
	var buf bytes.Buffer
	if err := agg.WriteSummaryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSummaryCSV(&buf, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Series that have any counts round-trip exactly.
	for _, st := range []disease.State{disease.Exposed, disease.Symptomatic, disease.Dead} {
		want := countySums(agg, st)
		got := countySums(back, st)
		for d := 0; d < 40; d++ {
			if want[d] != got[d] {
				t.Fatalf("state %v day %d: %d vs %d", st, d, got[d], want[d])
			}
		}
	}
	// County sets: readers only see counties with nonzero counts.
	for _, c := range back.Counties() {
		found := false
		for _, orig := range agg.Counties() {
			if orig == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("reader invented county %d", c)
		}
	}
	// Every county's series of every state reads back exactly.
	for _, c := range agg.Counties() {
		for st := disease.State(0); st < disease.NumStates; st++ {
			if !slices.Equal(back.Daily(c, st), agg.Daily(c, st)) {
				t.Fatalf("county %d %v: series differs after roundtrip", c, st)
			}
		}
	}
}

func TestReadSummaryCSVErrors(t *testing.T) {
	if _, err := ReadSummaryCSV(strings.NewReader(""), 10); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := ReadSummaryCSV(strings.NewReader("bogus header\n"), 10); err == nil {
		t.Error("bad header accepted")
	}
	hdr := "county_fips,day,state,new_count\n"
	// The last row is the bad one; a count or FIPS code the int32 series
	// cannot hold is refused, not wrapped.
	cases := map[string]string{
		"short row":       hdr + "51001,3\n",
		"bad county":      hdr + "xx,3,Exposed,1\n",
		"bad day":         hdr + "51001,99,Exposed,1\n",
		"bad state":       hdr + "51001,3,Blorbo,1\n",
		"bad count":       hdr + "51001,3,Exposed,abc\n",
		"negative count":  hdr + "51001,3,Exposed,-1\n",
		"count 2^31":      hdr + "51001,3,Exposed,2147483648\n",
		"FIPS 2^32+1":     hdr + "4294967297,3,Exposed,1\n",
		"sum past 2^31-1": hdr + "51001,3,Exposed,2147483647\n51001,3,Exposed,1\n",
	}
	for name, data := range cases {
		want := fmt.Sprintf("line %d:", strings.Count(data, "\n"))
		if _, err := ReadSummaryCSV(strings.NewReader(data), 10); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, want)
		}
	}
	// A valid minimal file parses.
	a, err := ReadSummaryCSV(strings.NewReader(hdr+"51001,3,Exposed,5\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Daily(51001, disease.Exposed)[3] != 5 {
		t.Fatal("value lost")
	}
}
