// Command popgen generates synthetic populations and contact networks —
// the one-time data-preparation step of the pipeline. It writes the person
// and network files (CSV or binary), the partition cache, and a population
// database snapshot per region, and prints the Figure 6 size summary.
//
// Usage:
//
//	popgen -states VA,MD,DC -scale 2000 -partitions 8 -out /tmp/pops
//	popgen -all -scale 20000 -format binary -out /tmp/pops
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/popdb"
	"repro/internal/synthpop"
	"repro/internal/transfer"
)

func main() {
	statesArg := flag.String("states", "VA", "comma-separated postal codes")
	all := flag.Bool("all", false, "generate all 51 regions")
	scale := flag.Int("scale", 10000, "population scale (1:N)")
	seed := flag.Uint64("seed", 2020, "random seed")
	partitions := flag.Int("partitions", 8, "partitions to precompute")
	format := flag.String("format", "csv", "csv | binary")
	outDir := flag.String("out", "", "output directory (omit to print sizes only)")
	flag.Parse()

	var states []synthpop.StateInfo
	if *all {
		states = synthpop.States
	} else {
		for _, code := range strings.Split(*statesArg, ",") {
			st, err := synthpop.StateByCode(strings.TrimSpace(code))
			if err != nil {
				log.Fatal(err)
			}
			states = append(states, st)
		}
	}
	cfg := synthpop.DefaultConfig(*seed)
	cfg.Scale = *scale

	fmt.Printf("%-6s %10s %12s %8s %10s %10s\n", "state", "persons", "edges", "degree", "person-file", "edge-file")
	var totalNodes, totalEdges, totalBytes int64
	for _, st := range states {
		net, err := synthpop.Generate(st, cfg)
		if err != nil {
			log.Fatal(err)
		}
		totalNodes += int64(net.NumNodes())
		totalEdges += int64(net.NumEdges())
		totalBytes += net.Bytes()
		fmt.Printf("%-6s %10d %12d %8.1f %10s %10s\n",
			st.Code, net.NumNodes(), net.NumEdges(), net.MeanDegree(),
			transfer.HumanBytes(net.PersonBytes()), transfer.HumanBytes(net.EdgeBytes()))
		if *outDir == "" {
			continue
		}
		dir := filepath.Join(*outDir, st.Code)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		// Person + network files.
		switch *format {
		case "csv":
			writeFile(filepath.Join(dir, "persons.csv"), func(f *os.File) error {
				return synthpop.WritePersonsCSV(f, net)
			})
			writeFile(filepath.Join(dir, "network.csv"), func(f *os.File) error {
				return synthpop.WriteNetworkCSV(f, net)
			})
		case "binary":
			writeFile(filepath.Join(dir, "network.bin"), func(f *os.File) error {
				return synthpop.WriteNetworkBinary(f, net)
			})
		default:
			log.Fatalf("unknown format %q", *format)
		}
		// Partition cache.
		parts := net.PartitionNodes(*partitions, 0.01)
		writeFile(filepath.Join(dir, "partitions.bin"), func(f *os.File) error {
			return synthpop.WritePartitions(f, parts)
		})
		// Population DB snapshot.
		db, err := popdb.NewServer(st.Code, net.Persons, 16)
		if err != nil {
			log.Fatal(err)
		}
		snap, err := db.TakeSnapshot()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "popdb.snapshot"), snap, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ntotal: %d persons, %d edges, %s in memory, %.1f bytes per edge (scale 1:%d → %d persons, %d edges at 1:1)\n",
		totalNodes, totalEdges, transfer.HumanBytes(totalBytes), float64(totalBytes)/float64(totalEdges), *scale,
		totalNodes*int64(*scale), totalEdges*int64(*scale))
	if *outDir != "" {
		fmt.Printf("wrote artifacts under %s\n", *outDir)
	}
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
}
