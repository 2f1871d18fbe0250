package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestRunFlags drives loadgen's flags against a two-worker front door: the
// text report of a -mix run counts every request and breaks it down by
// class, and the -json report of a -fixed run decodes to an all-OK report
// of one spec the service computed at most twice.
func TestRunFlags(t *testing.T) {
	c := scenario.NewService(scenario.Config{
		Workers: 2, QueueCap: 16, Fingerprint: "run",
		Runner: latencyRunner(time.Millisecond),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	}()
	ts := httptest.NewServer(scenario.NewServer(c))
	defer ts.Close()
	base := []string{"-addr", ts.URL, "-clients", "2", "-requests", "6", "-state", "RI", "-days", "1"}

	var out bytes.Buffer
	if err := run(context.Background(), append(base, "-mix"), &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for re, want := range map[string]int{
		`(?m)^clients=2 requests=6 ok=6 errors=0$`:                1,
		`(?m)^  (interactive|normal|batch) +requests=2 ok=2 p50=`: 3,
		`(?m)^  status 200: 6$`:                                   1,
		`(?m)^p50=\S+ p99=\S+ throughput=[0-9.]+ req/s over \S+$`: 1,
	} {
		if got := len(regexp.MustCompile(re).FindAllString(report, -1)); got != want {
			t.Errorf("%d lines match %s, want %d:\n%s", got, re, want, report)
		}
	}

	before := c.Registry().Counter("epi_scenario_submitted_total").Value()
	out.Reset()
	if err := run(context.Background(), append(base, "-fixed", "-json"), &out); err != nil {
		t.Fatal(err)
	}
	var rep LoadgenReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out.String())
	}
	if rep.OK != 6 || rep.Errors != 0 {
		t.Errorf("-json report ok=%d errors=%d, want 6 and 0", rep.OK, rep.Errors)
	}
	if n := c.Registry().Counter("epi_scenario_submitted_total").Value() - before; n > 2 {
		t.Errorf("-fixed spec executed %d times, want ≤2", n)
	}
}
