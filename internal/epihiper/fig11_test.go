package epihiper

import (
	"testing"

	"repro/internal/disease"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// fivePersonNetwork builds the illustrative workplace network of Figure 11:
// five people (A=0 … E=4) with daily contacts A–B, A–E, B–D, B–E, D–C.
func fivePersonNetwork() *synthpop.Network {
	var persons []synthpop.Person
	for i := int32(0); i < 5; i++ {
		persons = append(persons, synthpop.Person{
			ID: i, HouseholdID: i, Age: 30, CountyFIPS: 99001,
		})
	}
	edges := [][2]int32{{0, 1}, {0, 4}, {1, 3}, {1, 4}, {3, 2}}
	net, err := synthpop.NewBuilder("XX", persons).Build(func(b *synthpop.Builder) {
		for _, e := range edges {
			b.AddContact(e[0], e[1], synthpop.CtxWork, synthpop.CtxWork, 9*60, 480, 1)
		}
	})
	if err != nil {
		panic(err)
	}
	return net
}

// fig11Run simulates the SIR dynamics of Appendix A on the five-person
// network with A initially infectious and returns the set of ever-infected
// people.
func fig11Run(t *testing.T, seed uint64, ivs []Intervention) map[int32]bool {
	t.Helper()
	net := fivePersonNetwork()
	// A strong SIR model so transmission along live edges is likely.
	m := disease.SIR(3.0, 4)
	sim, err := New(Config{
		Model: m, Network: net, Days: 30, Parallelism: 1, Seed: seed,
		SeedPersons:   []int32{0}, // infections start from A
		Interventions: ivs,
	})
	if err != nil {
		t.Fatal(err)
	}
	infected := map[int32]bool{}
	// Identify who got infected by scanning final states plus recorder.
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	for pid := int32(0); pid < 5; pid++ {
		if sim.health[pid] != disease.Susceptible {
			infected[pid] = true
		}
	}
	return infected
}

// TestFig11SmallNetworkTrajectories reproduces the figure's story: the
// same seed node yields different outbreak subsets across random
// trajectories, and interventions (isolation, vaccination) prune
// transmission paths.
func TestFig11SmallNetworkTrajectories(t *testing.T) {
	// (1) Stochasticity: different trajectories infect different subsets.
	sizes := map[int]int{}
	for seed := uint64(0); seed < 40; seed++ {
		inf := fig11Run(t, seed, nil)
		sizes[len(inf)]++
	}
	if len(sizes) < 2 {
		t.Fatalf("all trajectories identical in size: %v", sizes)
	}
	// Every outbreak contains at least the seed.
	if sizes[0] > 0 {
		t.Fatal("an outbreak lost its seed")
	}

	// (2) Isolation: if D goes home (is isolated) for the whole run, C can
	// never be infected — C's only path is through D.
	iso := &Triggered{
		Label: "isolate-D",
		When:  OnDay(0),
		Do: func(s *Sim, day int, r *stats.RNG) {
			s.Isolate(3, 1000)
		},
	}
	for seed := uint64(0); seed < 40; seed++ {
		inf := fig11Run(t, seed, []Intervention{iso})
		if inf[2] {
			t.Fatalf("seed %d: C infected despite D's isolation", seed)
		}
		if inf[3] && seed == 0 {
			// D may still be infected (isolation cuts work contacts;
			// Figure 11's D goes home before infecting C, possibly after
			// being infected). Our isolation from day 0 cuts both ways
			// on this all-work network, so D must stay susceptible too.
			t.Fatal("D infected through a disabled contact")
		}
	}

	// (3) Vaccination: making C insusceptible keeps C uninfected even
	// when everyone else falls.
	vax := &Triggered{
		Label: "vaccinate-C",
		When:  OnDay(0),
		Do: func(s *Sim, day int, r *stats.RNG) {
			s.SetSusceptibility(2, 0)
		},
	}
	for seed := uint64(0); seed < 40; seed++ {
		inf := fig11Run(t, seed, []Intervention{vax})
		if inf[2] {
			t.Fatalf("seed %d: vaccinated C was infected", seed)
		}
	}

	// (4) The full cascade A→B→D→C of the figure occurs for some seed.
	sawFull := false
	for seed := uint64(0); seed < 200; seed++ {
		inf := fig11Run(t, seed, nil)
		if len(inf) == 5 {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("the all-five-infected trajectory never occurred in 200 draws")
	}
}
