package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/scenario"
)

// BenchmarkReplicaLoadgen is the PR 9 load proof: 64 concurrent closed-loop
// clients drive cache-miss traffic through the full HTTP front door at one
// and two replicas. The modeled workflow cost is a 2ms cancellation-aware
// service time, so the work is latency-bound and sustained throughput
// scales with the cluster's total worker count — the acceptance bar is
// ≥1.5× requests/second at replicas=2 over replicas=1 (each replica runs
// two workers). Client-side p50/p99 latency and throughput are reported as
// benchmark metrics and land in BENCH.json via `make bench-json`.
func BenchmarkReplicaLoadgen(b *testing.B) {
	const (
		clients     = 64
		serviceTime = 2 * time.Millisecond
	)
	runnerFor := func(int) scenario.Runner {
		return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(serviceTime):
				return &scenario.Result{}, nil
			}
		}
	}
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			c, err := replica.NewCoordinator(replica.Config{
				Replicas: replicas,
				Base: scenario.Config{
					Workers: 2, QueueCap: 128, Fingerprint: "bench-replica",
				},
				RunnerFor: runnerFor,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = c.Drain(ctx)
			}()
			ts := httptest.NewServer(scenario.NewBackendServer(c))
			defer ts.Close()

			b.ResetTimer()
			rep, err := replica.RunLoadgen(replica.LoadgenConfig{
				BaseURL: ts.URL, Clients: clients, Requests: b.N,
				Priority: "interactive",
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors > 0 {
				b.Fatalf("%d/%d requests failed: %v", rep.Errors, rep.Requests, rep.StatusDist)
			}
			b.ReportMetric(rep.P50ms, "p50_ms")
			b.ReportMetric(rep.P99ms, "p99_ms")
			b.ReportMetric(rep.Throughput, "rps")
		})
	}
}
