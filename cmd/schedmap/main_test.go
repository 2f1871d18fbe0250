package main

import (
	"bytes"
	"context"
	"testing"
)

// TestRunPinned holds schedmap's report at its defaults (nine all-state
// nights, then the r-relaxed coloring of a 12-task clique) byte for byte.
// Re-record with `go run ./cmd/schedmap`.
func TestRunPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != wantDefault {
		t.Errorf("stdout differs from the pin\n--- got ---\n%s--- want ---\n%s", got, wantDefault)
	}
}

const wantDefault = `cluster: Bridges (PSC) — 720 nodes, 20160 cores; window 36000 s
night 1:  9180 tasks  NFDT-DC 54.4% (53897s)  FFDT-DC 99.4% (29501s, fits window)
night 2:  9180 tasks  NFDT-DC 52.9% (55427s)  FFDT-DC 98.6% (29750s, fits window)
night 3:  9180 tasks  NFDT-DC 54.3% (54002s)  FFDT-DC 96.8% (30282s, fits window)
night 4:  9180 tasks  NFDT-DC 54.4% (53837s)  FFDT-DC 96.6% (30349s, fits window)
night 5:  9180 tasks  NFDT-DC 54.8% (53459s)  FFDT-DC 97.2% (30142s, fits window)
night 6:  9180 tasks  NFDT-DC 54.3% (53985s)  FFDT-DC 97.2% (30173s, fits window)
night 7:  9180 tasks  NFDT-DC 54.6% (53521s)  FFDT-DC 99.1% (29467s, fits window)
night 8:  9180 tasks  NFDT-DC 54.4% (53871s)  FFDT-DC 96.8% (30263s, fits window)
night 9:  9180 tasks  NFDT-DC 53.4% (54790s)  FFDT-DC 96.7% (30294s, fits window)

Figure 9 summary over 9 nights:
  NFDT-DC median utilization: 54.365% (paper: 44.237–55.579%)
  FFDT-DC median utilization: 97.198% (paper: 96.698% all-state, 95.534% VA-only)

r-relaxed coloring of one region's 12-task clique:
  r= 1 → 6 time slots
  r= 3 → 3 time slots
  r=11 → 1 time slots
`
