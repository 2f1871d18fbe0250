package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunReport predicts three weeks for Rhode Island from a two-row
// posterior CSV in the format calibrate writes, and checks the report's
// shape: the header counts the file's rows, every weekly band is ordered,
// and the capacity check prints a verdict.
func TestRunReport(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "posterior.csv")
	if err := os.WriteFile(csv, []byte("tau,symp,sh_compliance,vhi_compliance\n0.2,0.6,0.4,0.5\n0.22,0.7,0.3,0.6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-state", "RI", "-replicates", "2", "-days", "21", "-configs", csv}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.HasPrefix(report, "prediction workflow: RI, 2 configs × 2 replicates, 21 days\n") {
		t.Errorf("report does not open with the design:\n%s", report)
	}
	rows := regexp.MustCompile(`(?m)^ +(\d+) +(\d+) +(\d+) +(\d+)$`).FindAllStringSubmatch(report, -1)
	if len(rows) != 3 {
		t.Fatalf("%d weekly rows, want 3:\n%s", len(rows), report)
	}
	for _, r := range rows {
		lo, _ := strconv.Atoi(r[2])
		med, _ := strconv.Atoi(r[3])
		hi, _ := strconv.Atoi(r[4])
		if lo > med || med > hi {
			t.Errorf("day %s: median %d outside [%d, %d]", r[1], med, lo, hi)
		}
	}
	if !regexp.MustCompile(`(?m)^  (no overflow|OVERFLOW): `).MatchString(report) {
		t.Errorf("no capacity verdict in\n%s", report)
	}
}
