package main

import (
	"bytes"
	"context"
	"testing"
)

// TestRunPinned holds nightly's report at its defaults (all three Table I
// workflows, one failure-free night each) byte for byte. A change that moves
// it must say why; re-record with `go run ./cmd/nightly`.
func TestRunPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != wantDefault {
		t.Errorf("stdout differs from the pin\n--- got ---\n%s--- want ---\n%s", got, wantDefault)
	}
}

const wantDefault = `=== weekly timeline (Figure 2) ===
  day 0 [human] update ground truth & model configuration
  day 0 [auto ] generate calibration design (cells)
  day 0 [human] transfer configurations to remote cluster
  day 1 [auto ] nightly calibration simulations (10pm–8am)
  day 1 [auto ] aggregate outputs, transfer summaries home
  day 2 [auto ] Bayesian calibration (GP emulator + MCMC)
  day 2 [human] analyst review of calibration fit
  day 3 [human] generate prediction configurations + what-if scenarios
  day 4 [auto ] nightly prediction simulations (10pm–8am)
  day 5 [auto ] ensemble analysis, county-level products
  day 5 [human] domain-expert consistency review
  day 6 [human] deliver weekly products to stakeholders (Wednesday)

=== Economic workflow: 12 cells × 51 states × 15 replicates = 9180 simulations ===
  night 1: 9180 tasks, makespan 8.2h, utilization 99.1%, within the 10h window
           configs out 5.1GB, summaries back 5.0GB, raw kept remote 3.0TB

=== Prediction workflow: 12 cells × 51 states × 15 replicates = 9180 simulations ===
  night 1: 9180 tasks, makespan 8.2h, utilization 99.1%, within the 10h window
           configs out 5.1GB, summaries back 2.5GB, raw kept remote 1024.0GB

=== Calibration workflow: 300 cells × 51 states × 1 replicates = 15300 simulations ===
  night 1: 15300 tasks, makespan 7.3h, utilization 97.9%, within the 10h window
           configs out 8.5GB, summaries back 4.0GB, raw kept remote 5.0TB

=== transfer ledger (Table II accounting) ===
  home→remote total: 18.6GB
  remote→home total: 11.5GB
  modeled transfer time: 5.2 min
    night-configs            18.6GB
    night-summaries          11.5GB
`
