// Dendogram analysis: the transmission trees EpiHiper emits ("dendograms
// are part of this output, which are transmission trees rooted at initial
// infections") support the post-simulation analytics that feed the
// workflow's policy products — the effective reproduction number over
// time, generation intervals, and superspreading structure.
//
//	go run ./examples/dendogram_analysis
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/output"
	"repro/internal/synthpop"
)

func main() {
	md, err := synthpop.StateByCode("MD")
	if err != nil {
		log.Fatal(err)
	}
	cfg := synthpop.DefaultConfig(8)
	cfg.Scale = 4000
	net, err := synthpop.Generate(md, cfg)
	if err != nil {
		log.Fatal(err)
	}

	largest := net.Counties().Largest()
	logRec := &output.TransitionLog{}
	const days = 120
	sim, err := epihiper.New(epihiper.Config{
		Model: disease.COVID19(), Network: net, Days: days,
		Parallelism: 4, Seed: 17,
		Seeds:    []epihiper.Seeding{{CountyFIPS: largest, Day: 0, Count: 10}},
		Recorder: logRec,
		Interventions: []epihiper.Intervention{
			// A stay-at-home order mid-epidemic so Rt visibly drops.
			&epihiper.StayAtHome{StartDay: 45, EndDay: 90, Compliance: 0.7},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d people, %d infections over %d days\n\n",
		md.Name, net.NumNodes(), res.TotalInfections, days)

	d := output.BuildDendogram(logRec, disease.Exposed)
	fmt.Printf("transmission forest: %d trees, %d infected, depth %d\n",
		len(d.Roots), d.Size(), d.Depth())
	fmt.Printf("mean generation interval: %.1f days\n", d.MeanGenerationInterval())
	if k := d.Dispersion(); !math.IsInf(k, 1) && !math.IsNaN(k) {
		fmt.Printf("offspring dispersion k: %.2f (k ≪ 1 ⇒ superspreading)\n", k)
	} else {
		fmt.Println("offspring dispersion: Poisson-like (no overdispersion)")
	}

	fmt.Println("\nweekly effective reproduction number (SH order days 45–90):")
	rt := d.RtSeries(days, 7)
	for w, v := range rt {
		if math.IsNaN(v) || w >= len(rt)-2 { // skip empty / right-censored
			continue
		}
		bar := strings.Repeat("■", int(v*12))
		marker := ""
		if w*7 <= 45 && 45 < (w+1)*7 {
			marker = "  ← SH order starts"
		}
		fmt.Printf("  week %2d  Rt=%.2f %s%s\n", w+1, v, bar, marker)
	}

	fmt.Println("\ntop spreaders:")
	for _, sp := range d.TopSpreaders(5) {
		p := net.Persons[sp.PID]
		fmt.Printf("  person %4d (age %2d, county %d): %d secondary cases, subtree %d\n",
			sp.PID, p.Age, p.CountyFIPS, sp.Secondary, d.SubtreeSize(sp.PID))
	}
}
