package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"testing"
)

// TestRunReport runs the case study and checks the report's shape: four
// prior → posterior lines, a correlation line whose stated sign matches
// its value, a predictive coverage line and eight forecast weeks.
func TestRunReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for re, want := range map[string]int{
		`(?m)^(TAU|SYMP|SH|VHI) +prior [0-9.]+±[0-9.]+ → posterior [0-9.]+±[0-9.]+$`:   4,
		`(?m)^--- Figure 16: predictive 95% band covers \d+% of the ground truth ---$`: 1,
		`(?m)^  \+[1-8] +\d+ \[ *\d+, +\d+\]`:                                          8,
	} {
		if got := len(regexp.MustCompile(re).FindAllString(report, -1)); got != want {
			t.Errorf("%d lines match %s, want %d:\n%s", got, re, want, report)
		}
	}
	m := regexp.MustCompile(`corr\(TAU, SYMP\) in posterior: (\S+) +\(([a-z ]+); paper: negative\)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no correlation line in\n%s", report)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if (v < 0) != (m[2] == "negative") || (v > 0) != (m[2] == "positive") {
		t.Errorf("correlation %s is labelled %q", m[1], m[2])
	}
}
