// Quickstart: the 60-second tour of the library — build a synthetic
// population, run an agent-based COVID-19 simulation with interventions,
// and print the epidemic curve.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/synthpop"
)

func main() {
	// 1. A synthetic population + contact network for Rhode Island at
	// 1:2000 scale (≈500 people), with households, workplaces, schools
	// and the other contact contexts of the paper's Appendix C.
	ri, err := synthpop.StateByCode("RI")
	if err != nil {
		log.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(42)
	cfg.Scale = 2000
	net, err := synthpop.Generate(ri, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d people, %d contact edges, mean degree %.1f\n\n",
		ri.Name, net.NumNodes(), net.NumEdges(), net.MeanDegree())

	// 2. Seed ten infections in the largest county and simulate 150 days
	// of the CDC best-guess COVID-19 model, with voluntary home
	// isolation, school closure and a 60%-compliant stay-at-home order
	// from day 40 to day 100.
	largest := net.Counties().Largest()
	sim, err := epihiper.New(epihiper.Config{
		Model:       disease.COVID19(),
		Network:     net,
		Days:        150,
		Parallelism: 4,
		Seed:        7,
		Seeds:       []epihiper.Seeding{{CountyFIPS: largest, Day: 0, Count: 10}},
		Interventions: []epihiper.Intervention{
			&epihiper.VoluntaryHomeIsolation{Compliance: 0.5, IsolationDays: 14},
			&epihiper.SchoolClosure{StartDay: 40, EndDay: 100},
			&epihiper.StayAtHome{StartDay: 40, EndDay: 100, Compliance: 0.6},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Print the daily infectious prevalence as an ASCII epicurve.
	fmt.Println("day  infectious prevalence")
	peak := int32(0)
	for d := 0; d < res.Days; d++ {
		cur := res.Current[d][disease.Symptomatic] +
			res.Current[d][disease.Presymptomatic] +
			res.Current[d][disease.Asymptomatic]
		if cur > peak {
			peak = cur
		}
	}
	for d := 0; d < res.Days; d += 4 {
		cur := res.Current[d][disease.Symptomatic] +
			res.Current[d][disease.Presymptomatic] +
			res.Current[d][disease.Asymptomatic]
		bar := 0
		if peak > 0 {
			bar = int(cur * 50 / peak)
		}
		fmt.Printf("%3d  %4d %s\n", d, cur, strings.Repeat("█", bar))
	}
	fmt.Printf("\ntotal infections: %d of %d (%.1f%%), deaths: %d\n",
		res.TotalInfections, net.NumNodes(),
		100*epihiper.Attack(res, net.NumNodes()),
		sim.CumulativeCount(disease.Dead))
}
