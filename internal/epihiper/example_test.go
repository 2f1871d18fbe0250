package epihiper_test

import (
	"fmt"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/synthpop"
)

// Example runs a small end-to-end simulation: generate a synthetic
// Wyoming, seed five infections, simulate 60 days with a stay-at-home
// order, and report the outcome. Results are deterministic given the
// seeds, so the output is exact.
func Example() {
	wy, _ := synthpop.StateByCode("WY")
	cfg := synthpop.DefaultConfig(42)
	cfg.Scale = 2000
	net, err := synthpop.Generate(wy, cfg)
	if err != nil {
		panic(err)
	}
	sim, err := epihiper.New(epihiper.Config{
		Model:       disease.COVID19(),
		Network:     net,
		Days:        60,
		Parallelism: 4,
		Seed:        7,
		SeedPersons: []int32{0, 1, 2, 3, 4},
		Interventions: []epihiper.Intervention{
			&epihiper.StayAtHome{StartDay: 20, EndDay: 60, Compliance: 0.7},
		},
	})
	if err != nil {
		panic(err)
	}
	res, err := sim.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("population: %d\n", net.NumNodes())
	fmt.Printf("infections: %d\n", res.TotalInfections)
	fmt.Printf("attack rate: %.1f%%\n", 100*epihiper.Attack(res, net.NumNodes()))
	// Output:
	// population: 289
	// infections: 171
	// attack rate: 59.2%
}
