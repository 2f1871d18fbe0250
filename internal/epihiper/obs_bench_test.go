package epihiper

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchReplicates runs the replicate fan-out the nightly pipeline schedules,
// with or without a tracer in the context, so the pair of benchmarks prices
// the observability overhead on the simulation kernel (budget: ≤3%).
func benchReplicates(b *testing.B, ctx context.Context) {
	net := testNetwork(b, 13)
	cfg := baseConfig(net, 61)
	cfg.Days = 40
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runReplicates(ctx, cfg, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicatesObsOff(b *testing.B) {
	benchReplicates(b, context.Background())
}

type discardSink struct{}

func (discardSink) Emit(obs.Entry) {}

func BenchmarkReplicatesObsOn(b *testing.B) {
	tr := obs.NewTracer(discardSink{}, obs.WithClock(obs.FixedClock(time.Unix(0, 0), time.Microsecond)),
		obs.WithSpanMetrics(obs.NewRegistry()))
	benchReplicates(b, obs.WithTracer(context.Background(), tr))
}
