package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
)

// TestRunReport runs the factorial design and checks that it announces 72
// simulations and prints one costed row per cell of the 2 × 3 × 2 design.
func TestRunReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.HasPrefix(report, "factorial design: 12 cells × 2 states × 3 replicates = 72 simulations\n") {
		t.Errorf("report does not open with the design size:\n%s", report)
	}
	rows := regexp.MustCompile(`(?m)^cell\d\d-vhi\d+%-sh\d+d-c\d+% +\d+ +\d+ +\d+ +\d+ +\$[0-9.]+M$`).FindAllString(report, -1)
	if len(rows) != 12 {
		t.Errorf("%d costed cells, want 12:\n%s", len(rows), report)
	}
}
