package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mcmc"
)

// small is the calibration at a few milliseconds: 12 prior cells, two
// short chains.
var small = []string{"-cells", "12", "-steps", "200", "-chains", "2", "-days", "40"}

// TestRunReport runs a small calibration and checks the report's shape: the
// four parameter summaries, a correlation line whose stated sign matches
// its value, and one CSV row per posterior configuration.
func TestRunReport(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "posterior.csv")
	var out bytes.Buffer
	if err := run(context.Background(), append(small, "-out", csv), &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, name := range []string{"TAU", "SYMP", "SH", "VHI"} {
		if !regexp.MustCompile(`(?m)^  ` + name + ` +prior mean [0-9.]+ sd [0-9.]+ → posterior mean`).MatchString(report) {
			t.Errorf("no %s summary in\n%s", name, report)
		}
	}
	checkCorrSign(t, report)
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")
	if rows[0] != "tau,symp,sh_compliance,vhi_compliance" || len(rows) < 2 {
		t.Fatalf("posterior CSV starts %q and has %d lines", rows[0], len(rows))
	}
	if !strings.Contains(report, "wrote "+strconv.Itoa(len(rows)-1)+" posterior configurations to "+csv) {
		t.Errorf("report does not count the %d CSV rows:\n%s", len(rows)-1, report)
	}
}

// TestRunConvergenceGate: a requested R̂ gate that the short chains cannot
// meet still prints the whole report, then fails the run with the
// convergence error.
func TestRunConvergenceGate(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), append(small, "-rhat-max", "1.0001"), &out)
	var convErr *mcmc.ConvergenceError
	if !errors.As(err, &convErr) {
		t.Fatalf("run = %v, want a *mcmc.ConvergenceError", err)
	}
	if !strings.Contains(out.String(), "WARNING: ") || !strings.Contains(out.String(), "corr(TAU, SYMP)") {
		t.Errorf("gated run did not print the warning and the full report:\n%s", out.String())
	}
}

var corrLine = regexp.MustCompile(`corr\(TAU, SYMP\) = (\S+) \(([a-z ]+); paper: negative\)`)

// checkCorrSign requires the correlation line to name the sign of the
// value it prints.
func checkCorrSign(t *testing.T, report string) {
	t.Helper()
	m := corrLine.FindStringSubmatch(report)
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
