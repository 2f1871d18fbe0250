package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// goldenMix is the benchmark's splitmix64 over (seed, stream, index), so the
// pinned nights are the ones `night-batch` runs.
func goldenMix(seed uint64, stream, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// goldenNight is night n of the `night-batch` mix: the three Table I
// families, each failure-free (even n) and under faults (odd n).
func goldenNight(seed uint64, n int) NightConfig {
	cfg := NightConfig{Spec: TableI()[(n/2)%3], Heuristic: "FFDT-DC", Seed: goldenMix(seed, 6, n), Day: n}
	if n%2 == 1 {
		cfg.Faults = faults.Spec{Seed: goldenMix(seed, 7, n),
			TaskCrashProb: 0.05, DBRefusalProb: 0.025, TransferStallProb: 0.025}
	}
	return cfg
}

// The nightly pipeline's observable outcome is pinned bit for bit: task
// accounting, the ordered shed list, and makespan/utilization as raw float
// bits, for the six night-batch configurations at two seeds. Any executor,
// packer or recovery-loop change must leave this file untouched
// (`go test ./internal/core -run TestNightGolden -update` rewrites it).
func TestNightGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []uint64{1, 3} {
		for n := 0; n < 6; n++ {
			cfg := goldenNight(seed, n)
			p := NewPipeline(seed)
			r, exec, err := p.runNight(context.Background(), cfg, nil)
			if err != nil {
				t.Fatalf("seed %d night %d: %v", seed, n, err)
			}
			if cfg.Faults.Enabled() {
				c, deadline := p.nightConstraints()
				if err := cluster.ValidateExecution(exec, c, deadline); err != nil {
					t.Fatalf("seed %d night %d: merged trace invalid: %v", seed, n, err)
				}
			}
			fmt.Fprintf(&got, "seed=%d night=%d %s faults=%v tasks=%d completed=%d retries=%d rounds=%d recovered=%d makespan=%016x utilization=%016x shed=",
				seed, n, cfg.Spec.Kind, cfg.Faults.Enabled(), r.Tasks, r.Completed, r.Retries, r.Rounds, r.Recovered,
				math.Float64bits(r.Makespan), math.Float64bits(r.Utilization))
			for i, s := range r.Shed {
				if i > 0 {
					got.WriteByte(',')
				}
				fmt.Fprintf(&got, "%s/%d/%d", s.Region, s.Cell, s.Replicate)
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "night_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("night reports drifted from %s\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
