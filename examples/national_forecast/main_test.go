package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"testing"
)

// TestRunReport runs the case study and checks that each of the five
// scenarios prints a median inside its 95% band.
func TestRunReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^  (\S.*?) +(\d+) \[ *(\d+), +(\d+)\]$`).FindAllStringSubmatch(out.String(), -1)
	if len(rows) != 5 {
		t.Fatalf("%d scenario rows, want 5:\n%s", len(rows), out.String())
	}
	for _, r := range rows {
		med, _ := strconv.Atoi(r[2])
		lo, _ := strconv.Atoi(r[3])
		hi, _ := strconv.Atoi(r[4])
		if lo > med || med > hi {
			t.Errorf("%s: median %d outside [%d, %d]", r[1], med, lo, hi)
		}
	}
}
