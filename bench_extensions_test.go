package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/metapop"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// BenchmarkNationalMetapop runs the sparse 3,142-county national SEIR —
// the "cheap to run" property that lets the metapopulation model calibrate
// inside the MCMC loop.
func BenchmarkNationalMetapop(b *testing.B) {
	model, err := metapop.NewUS(metapop.DefaultNationalConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := metapop.Params{Beta: 0.45, Sigma: 1.0 / 3, Gamma: 1.0 / 5, Detect: 0.2}
	seeds := []metapop.Seed{{CountyIndex: 0, Infectious: 50}}
	b.ResetTimer()
	var final float64
	for i := 0; i < b.N; i++ {
		cum, err := model.StateCurve(p, 200, seeds, nil)
		if err != nil {
			b.Fatal(err)
		}
		final = cum[199]
	}
	b.ReportMetric(float64(len(model.Counties)), "counties")
	b.ReportMetric(final, "final_cases")
}

// BenchmarkPartitionToleranceSweep measures the ε knob of the paper's
// partitioner: looser tolerance packs faster but less evenly.
func BenchmarkPartitionToleranceSweep(b *testing.B) {
	net := benchNetwork(b, "CA", 5000)
	for _, eps := range []float64{0.001, 0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var parts []synthpop.Partition
			for i := 0; i < b.N; i++ {
				parts = net.PartitionNodes(16, eps)
			}
			b.ReportMetric(synthpop.PartitionImbalance(parts), "imbalance")
			b.ReportMetric(float64(len(parts)), "partitions")
		})
	}
}

// BenchmarkBinaryVsCSVNetworkIO compares the two on-disk network formats
// ("the contact network ... is in csv or binary format").
func BenchmarkBinaryVsCSVNetworkIO(b *testing.B) {
	net := benchNetwork(b, "VA", 5000)
	var binBuf, csvBuf bytes.Buffer
	if err := synthpop.WriteNetworkBinary(&binBuf, net); err != nil {
		b.Fatal(err)
	}
	if err := synthpop.WriteNetworkCSV(&csvBuf, net); err != nil {
		b.Fatal(err)
	}
	binData := binBuf.Bytes()
	csvData := csvBuf.Bytes()
	b.Run("binary-read", func(b *testing.B) {
		b.SetBytes(int64(len(binData)))
		for i := 0; i < b.N; i++ {
			if _, err := synthpop.ReadNetworkBinary(bytes.NewReader(binData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv-read", func(b *testing.B) {
		b.SetBytes(int64(len(csvData)))
		for i := 0; i < b.N; i++ {
			if _, err := synthpop.ReadNetworkCSV(bytes.NewReader(csvData), net.Persons, net.Region); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := synthpop.WriteNetworkBinary(&buf, net); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnsembleInterventions measures the Appendix D action-ensemble
// machinery against hand-rolled interventions: a nightly vaccination
// campaign expressed both ways.
func BenchmarkEnsembleInterventions(b *testing.B) {
	net := benchNetwork(b, "VA", 5000)
	run := func(b *testing.B, ivs []epihiper.Intervention) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			sim, err := epihiper.New(epihiper.Config{
				Model: disease.COVID19(), Network: net, Days: 60,
				Parallelism: 4, Seed: 5,
				Seeds:         seedLargest(net, 10),
				Interventions: ivs,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ensemble", func(b *testing.B) {
		run(b, []epihiper.Intervention{&epihiper.EnsembleIntervention{
			Label:   "vaccinate",
			Trigger: epihiper.OnDay(10),
			Ensemble: epihiper.ActionEnsemble{
				SampleFrac: 0.3,
				Sampled:    epihiper.OpVaccinate(),
			},
		}})
	})
	b.Run("handrolled", func(b *testing.B) {
		run(b, []epihiper.Intervention{&epihiper.Triggered{
			Label: "vaccinate",
			When:  epihiper.OnDay(10),
			Do: func(s *epihiper.Sim, day int, r *stats.RNG) {
				for pid := int32(0); int(pid) < s.Network().NumNodes(); pid++ {
					if r.Bool(0.3) {
						s.SetSusceptibility(pid, 0)
					}
				}
			},
		}})
	})
}
