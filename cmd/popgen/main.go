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
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/popdb"
	"repro/internal/synthpop"
	"repro/internal/transfer"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("popgen", flag.ExitOnError)
	statesArg := fs.String("states", "VA", "comma-separated postal codes")
	all := fs.Bool("all", false, "generate all 51 regions")
	scale := fs.Int("scale", 10000, "population scale (1:N)")
	seed := fs.Uint64("seed", 2020, "random seed")
	partitions := fs.Int("partitions", 8, "partitions to precompute")
	format := fs.String("format", "csv", "csv | binary")
	outDir := fs.String("out", "", "output directory (omit to print sizes only)")
	fs.Parse(args)

	var states []synthpop.StateInfo
	if *all {
		states = synthpop.States
	} else {
		for _, code := range strings.Split(*statesArg, ",") {
			st, err := synthpop.StateByCode(strings.TrimSpace(code))
			if err != nil {
				return err
			}
			states = append(states, st)
		}
	}
	cfg := synthpop.DefaultConfig(*seed)
	cfg.Scale = *scale

	fmt.Fprintf(stdout, "%-6s %10s %12s %8s %10s %10s\n", "state", "persons", "edges", "degree", "person-file", "edge-file")
	var totalNodes, totalEdges, totalBytes int64
	for _, st := range states {
		net, err := synthpop.Generate(st, cfg)
		if err != nil {
			return err
		}
		totalNodes += int64(net.NumNodes())
		totalEdges += int64(net.NumEdges())
		totalBytes += net.Bytes()
		fmt.Fprintf(stdout, "%-6s %10d %12d %8.1f %10s %10s\n",
			st.Code, net.NumNodes(), net.NumEdges(), net.MeanDegree(),
			transfer.HumanBytes(net.PersonBytes()), transfer.HumanBytes(net.EdgeBytes()))
		if *outDir == "" {
			continue
		}
		dir := filepath.Join(*outDir, st.Code)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		// Person + network files, then the partition cache.
		files := map[string]func(*os.File) error{}
		switch *format {
		case "csv":
			files["persons.csv"] = func(f *os.File) error { return synthpop.WritePersonsCSV(f, net) }
			files["network.csv"] = func(f *os.File) error { return synthpop.WriteNetworkCSV(f, net) }
		case "binary":
			files["network.bin"] = func(f *os.File) error { return synthpop.WriteNetworkBinary(f, net) }
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		parts := net.PartitionNodes(*partitions, 0.01)
		files["partitions.bin"] = func(f *os.File) error { return synthpop.WritePartitions(f, parts) }
		for name, write := range files {
			if err := writeFile(filepath.Join(dir, name), write); err != nil {
				return err
			}
		}
		// Population DB snapshot.
		db, err := popdb.NewServer(st.Code, net.Persons, 16)
		if err != nil {
			return err
		}
		snap, err := db.TakeSnapshot()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "popdb.snapshot"), snap, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "\ntotal: %d persons, %d edges, %s in memory, %.1f bytes per edge (scale 1:%d → %d persons, %d edges at 1:1)\n",
		totalNodes, totalEdges, transfer.HumanBytes(totalBytes), float64(totalBytes)/float64(totalEdges), *scale,
		totalNodes*int64(*scale), totalEdges*int64(*scale))
	if *outDir != "" {
		fmt.Fprintf(stdout, "wrote artifacts under %s\n", *outDir)
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
