package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/synthpop"
)

// TestSeedingPicksLowestTiedCounty: Vermont at epirun's default scale and
// seed (1:5000, seed 42) has two most populous counties of equal size. The
// run must seed the lower FIPS code every time; choosing by map iteration
// made the same flags report different epidemics.
func TestSeedingPicksLowestTiedCounty(t *testing.T) {
	st, err := synthpop.StateByCode("VT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(42)
	cfg.Scale = 5000
	net, err := synthpop.Generate(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := net.Counties()
	var tied []int32
	best := int32(0)
	for ord, size := range ix.Size {
		switch {
		case size > best:
			tied, best = []int32{ix.FIPS[ord]}, size
		case size == best:
			tied = append(tied, ix.FIPS[ord])
		}
	}
	if len(tied) < 2 {
		t.Fatalf("VT 1:5000 seed 42 has one largest county (%v, %d persons); the tie this test pins is gone", tied, best)
	}
	for range 20 {
		s := seeding(net)
		if len(s) != 1 || s[0].CountyFIPS != tied[0] || s[0].Count != 5 || s[0].Day != 0 {
			t.Fatalf("seeding = %+v, want 5 cases on day 0 in county %d (lowest of %v, %d persons each)", s, tied[0], tied, best)
		}
	}
}

// TestRunReport runs the README's first command and checks the report's
// shape: the network line, the run summary, an epicurve row for every
// fourth day, and the files and metrics that -out and -metrics-dump ask for.
func TestRunReport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	var out bytes.Buffer
	args := []string{"-state", "RI", "-scale", "2000", "-days", "150", "-out", dir, "-metrics-dump", metrics}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for re, want := range map[string]int{
		`(?m)^generating Rhode Island network at 1:2000 scale\.\.\.$`: 1,
		`(?m)^simulated 150 days in \S+ \(4 shards\)$`:                1,
		`(?m)^  total infections: \d+ \(attack rate [0-9.]+%\)$`:      1,
		`(?m)^  dendogram: \d+ trees, \d+ infected, depth \d+$`:       1,
		`(?m)^ *\d+ +\d+ █*$`:                                         38,
		`(?m)^  wrote \S+transitions\.csv and \S+summary\.csv$`:       1,
	} {
		if got := len(regexp.MustCompile(re).FindAllString(report, -1)); got != want {
			t.Errorf("%d lines match %s, want %d:\n%s", got, re, want, report)
		}
	}
	for _, name := range []string{"transitions.csv", "summary.csv", "metrics.txt"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %v)", name, err, fi)
		}
	}
}

// TestFlagsAndConfigAgree: the individual flags and -config describe one
// simulation the same way. The flags' meaning is written out here as a
// JSONConfig (the TAU/SYMP model, VHI with 14 isolation days, SC from
// -sh-start and SH 15 days later, both to the horizon); running that file
// must print the flags' report, apart from the wall-time line, and an
// explicit -shards beats the file's.
func TestFlagsAndConfigAgree(t *testing.T) {
	model, err := core.Params{TAU: 0.2, SYMP: 0.6}.ApplyToModel(disease.COVID19())
	if err != nil {
		t.Fatal(err)
	}
	jc := &epihiper.JSONConfig{
		Region: "RI", Days: 60, Shards: 2, Seed: 7, Model: model,
		Interventions: []epihiper.InterventionSpec{
			{Type: "VHI", Compliance: 0.4, IsolationDays: 14},
			{Type: "SC", StartDay: 10, EndDay: 60},
			{Type: "SH", StartDay: 25, EndDay: 60, Compliance: 0.5},
		},
	}
	data, err := jc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	report := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(context.Background(), append([]string{"-scale", "2000"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		return regexp.MustCompile(`(?m)^simulated (\d+) days in \S+ `).ReplaceAllString(out.String(), "simulated $1 days in WALL ")
	}
	fromFlags := report("-state", "RI", "-days", "60", "-tau", "0.2", "-symp", "0.6",
		"-sh", "0.5", "-vhi", "0.4", "-sh-start", "10", "-seed", "7", "-shards", "2")
	fromFile := report("-config", path)
	if fromFlags != fromFile {
		t.Errorf("flags and -config reports differ\n--- flags ---\n%s--- config ---\n%s", fromFlags, fromFile)
	}
	if !strings.Contains(fromFile, "simulated 60 days in WALL (2 shards)") {
		t.Errorf("the file's shards did not reach the run:\n%s", fromFile)
	}
	if r := report("-config", path, "-shards", "1"); !strings.Contains(r, "(1 shards)") {
		t.Errorf("an explicit -shards did not beat the file's:\n%s", r)
	}
}
