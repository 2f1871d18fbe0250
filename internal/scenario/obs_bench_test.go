package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// benchBackend is one serving stack (pipeline, service, HTTP server) for the
// overhead benchmark, with or without the observability layer.
type benchBackend struct {
	svc *Service
	srv http.Handler
}

func newBenchBackend(traced bool) *benchBackend {
	p := core.NewPipeline(77, core.WithScale(40000), core.WithParallelism(2))
	reg := obs.NewRegistry()
	svc := NewService(Config{
		Pipeline: p, Workers: 2, QueueCap: 64, CacheCap: 8, Registry: reg,
	})
	var so *ServingObs
	if traced {
		so = NewServingObs(reg, ServingObsConfig{
			RecorderCapacity: 256, SLOTarget: time.Second,
		})
	}
	return &benchBackend{svc: svc, srv: NewServer(svc, so)}
}

// submit drives one synchronous real-pipeline prediction through the serving
// path, in-process (no sockets). tau wiggles per call so every request is a
// cache miss and carries the complete path: admission, queue wait, job run.
func (bb *benchBackend) submit(b *testing.B, i int) {
	spec := Spec{
		Workflow: WorkflowPrediction, State: "RI", Days: 120, Replicates: 4,
		Configs: []ParamSpec{{
			TAU:  0.16 + float64(i%100000)*1e-7,
			SYMP: 0.65, SHCompliance: 0.6, VHICompliance: 0.5,
		}},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/scenarios?wait=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	bb.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d at iteration %d", rec.Code, i)
	}
}

// BenchmarkServingObsOverhead prices the request-scoped observability layer
// on the serving path — the PR 5 overhead discipline applied to the serving
// tier. Two identical real-pipeline stacks serve alternating requests: one
// with the layer absent (nil ServingObs — the exact pre-layer handler
// chain), one fully on (per-request trace, flight recorder, RED series, SLO
// burn tracking). Requests alternate between the stacks within a single
// timed loop so that machine drift lands on both arms equally; the reported
// ns/req-off, ns/req-on and overhead-pct metrics are the paired comparison.
// Budget: overhead-pct ≤ 3 — the layer's fixed per-request cost is tens of
// microseconds against a milliseconds-scale engine run (see DESIGN.md §17).
func BenchmarkServingObsOverhead(b *testing.B) {
	off := newBenchBackend(false)
	on := newBenchBackend(true)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = off.svc.Drain(ctx)
		_ = on.svc.Drain(ctx)
	}()
	// Symmetric warmup so first-touch costs stay out of the timed loop.
	for i := 0; i < 4; i++ {
		off.submit(b, i)
		on.submit(b, i)
	}

	offSamples := make([]time.Duration, 0, b.N/2+1)
	onSamples := make([]time.Duration, 0, b.N/2+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if i%2 == 0 {
			off.submit(b, i)
			offSamples = append(offSamples, time.Since(start))
		} else {
			on.submit(b, i)
			onSamples = append(onSamples, time.Since(start))
		}
	}
	b.StopTimer()
	if len(offSamples) > 0 && len(onSamples) > 0 {
		perOff := trimmedMeanNS(offSamples)
		perOn := trimmedMeanNS(onSamples)
		b.ReportMetric(perOff, "ns/req-off")
		b.ReportMetric(perOn, "ns/req-on")
		b.ReportMetric((perOn-perOff)/perOff*100, "overhead-pct")
	}
}

// trimmedMeanNS averages the middle 60% of the samples: GC cycles and
// scheduler hiccups land on whichever request happens to be in flight, so
// the tails carry cross-arm noise, not signal.
func trimmedMeanNS(samples []time.Duration) float64 {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lo, hi := len(sorted)/5, len(sorted)-len(sorted)/5
	var sum time.Duration
	for _, d := range sorted[lo:hi] {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(hi-lo)
}
