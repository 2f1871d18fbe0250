package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestRunReport runs the analysis and checks the report's shape: the
// forest summary, weekly Rt rows with the stay-at-home marker, and five
// top spreaders.
func TestRunReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for re, want := range map[string]int{
		`(?m)^transmission forest: \d+ trees, \d+ infected, depth \d+$`: 1,
		`(?m)^mean generation interval: [0-9.]+ days$`:                  1,
		`← SH order starts`: 1,
		`(?m)^  person +\d+ \(age \d+, county \d+\): \d+ secondary`: 5,
	} {
		if got := len(regexp.MustCompile(re).FindAllString(report, -1)); got != want {
			t.Errorf("%d lines match %s, want %d:\n%s", got, re, want, report)
		}
	}
	if !regexp.MustCompile(`(?m)^  week +\d+  Rt=[0-9.]+ `).MatchString(report) {
		t.Errorf("no weekly Rt row in\n%s", report)
	}
}
