package epihiper

import (
	"fmt"
	"testing"

	"repro/internal/synthpop"
)

// BenchmarkFork prices a what-if branch's fork: a VA 1:1000 checkpoint
// (about 8.5k persons, the whatif-branch network) walked at 2 shards under
// the base-case stack and frozen at day 60 of 90 is forked onto 2 shards
// (same count: new shard tables, calendars refilled from switchTick) and
// onto 1 (re-partitioned as well). The "+branch" cases also run the 30-day
// suffix, so the fork's share of a branch reads off the pair.
func BenchmarkFork(b *testing.B) {
	va, err := synthpop.StateByCode("VA")
	if err != nil {
		b.Fatal(err)
	}
	pcfg := synthpop.DefaultConfig(43)
	pcfg.Scale = 1000
	net, err := synthpop.Generate(va, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	const days, pivot = 90, 60
	stack := func() []Intervention { return BaseCaseInterventions(20, 80, 0.5, 0.5) }
	src, err := New(snapCfg(net, days, 2, 43, stack(), nil))
	if err != nil {
		b.Fatal(err)
	}
	pre, err := src.RunPrefix(pivot)
	if err != nil {
		b.Fatal(err)
	}
	for _, to := range []int{2, 1} {
		for _, branch := range []bool{false, true} {
			name := fmt.Sprintf("2→%d", to)
			if branch {
				name += "+branch"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f, err := src.Fork(Config{Parallelism: to, Interventions: stack()})
					if err != nil {
						b.Fatal(err)
					}
					if branch {
						if _, err := f.RunSuffix(pre); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
