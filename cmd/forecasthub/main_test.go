package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunReport forecasts two weeks for the one-county District of
// Columbia and checks the report's shape: a calibration line, one scored
// row per week, the scorecard, and a hub CSV whose rows the report counts.
func TestRunReport(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "forecast.csv")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-state", "DC", "-weeks", "2", "-train", "30", "-out", csv}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for re, want := range map[string]int{
		`(?m)^calibrated DC on days \d+–\d+: MAP beta=`: 1,
		`(?m)^[12] wk +\d+ +\d+ +\d+ +\d+ +\d+$`:        2,
		`(?m)^scorecard over 2 targets: MAE \d+`:        1,
	} {
		if got := len(regexp.MustCompile(re).FindAllString(report, -1)); got != want {
			t.Errorf("%d lines match %s, want %d:\n%s", got, re, want, report)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")
	if rows[0] != "location,target,type,quantile,value" {
		t.Fatalf("hub CSV header %q", rows[0])
	}
	row := regexp.MustCompile(`^DC,[12] wk ahead cum case,quantile,0\.\d+,[-0-9.e+]+$`)
	for _, r := range rows[1:] {
		if !row.MatchString(r) {
			t.Fatalf("hub row %q", r)
		}
	}
	if !strings.Contains(report, fmt.Sprintf("wrote %d hub rows to %s\n", len(rows)-1, csv)) {
		t.Errorf("report does not count the %d hub rows:\n%s", len(rows)-1, report)
	}
}
