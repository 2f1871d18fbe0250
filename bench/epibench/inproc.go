package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// --- kernel-scale -------------------------------------------------------

const (
	kernelState = "CA"
	kernelScale = 250 // 1:250 — about 158k nodes and 2.06M edges
	kernelDays  = 90
)

// kernelNet generates the workload's network from the seed.
func kernelNet(seed uint64) (*synthpop.Network, error) {
	st, err := synthpop.StateByCode(kernelState)
	if err != nil {
		return nil, err
	}
	cfg := synthpop.DefaultConfig(seed)
	cfg.Scale = kernelScale
	return synthpop.Generate(st, cfg)
}

// kernelConfig is one unmitigated 90-day epidemic — no interventions, so
// most of the network is infected and the frontier stays large.
func kernelConfig(net *synthpop.Network, shards int, simSeed uint64) epihiper.Config {
	return epihiper.Config{
		Model: disease.COVID19(), Network: net, Days: kernelDays, Parallelism: shards, Seed: simSeed,
		Seeds: []epihiper.Seeding{{CountyFIPS: net.Persons[0].CountyFIPS, Day: 0, Count: 10}},
	}
}

// kernelRun is one op: build a simulator and run it to the horizon.
func kernelRun(net *synthpop.Network, shards int, simSeed uint64) (*epihiper.Result, time.Duration, error) {
	t0 := time.Now()
	sim, err := epihiper.New(kernelConfig(net, shards, simSeed))
	if err != nil {
		return nil, 0, err
	}
	res, err := sim.Run()
	return res, time.Since(t0), err
}

// kernelPair runs pair i — the same epidemic at 1 shard and at nproc
// shards, alternating which goes first — and holds the two results equal.
func kernelPair(net *synthpop.Network, seed uint64, i, nproc int) (one, many time.Duration, res *epihiper.Result, err error) {
	simSeed := mix(seed, streamKernel, i)
	shards := [2]int{1, nproc}
	var results [2]*epihiper.Result
	var times [2]time.Duration
	for k := range shards {
		j := (k + i) % 2 // odd pairs run the sharded configuration first
		if results[j], times[j], err = kernelRun(net, shards[j], simSeed); err != nil {
			return 0, 0, nil, err
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		return 0, 0, nil, fmt.Errorf("pair %d: result at 1 shard differs from result at %d shards", i, nproc)
	}
	return times[0], times[1], results[0], nil
}

// kernelScaleE2E is the HPC case: time to solution on a network large
// enough that shards do real work, with a plain single-shard baseline.
func kernelScaleE2E(ctx context.Context, e *env) (*measured, error) {
	net, setupS, err := repeatSetup(func() (*synthpop.Network, error) {
		net, err := kernelNet(e.seed)
		if err != nil {
			return nil, err
		}
		_, _, _, err = kernelPair(net, e.seed, 0, e.nproc) // warm-up pair
		return net, err
	}, func(*synthpop.Network) error { return nil })
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: setupS, tailQ: 0.5}
	h := sha256.New()
	for i, start := 1, time.Now(); time.Since(start) < e.seconds && ctx.Err() == nil; i++ {
		m.attempted += 2
		cpu0 := selfCPU()
		one, many, res, err := kernelPair(net, e.seed, i, e.nproc)
		if err != nil {
			m.failed += 2
			m.errs = append(m.errs, err.Error())
			continue
		}
		// The sharded run is the op users wait for; the single-shard run
		// of the same problem is the baseline it is compared with.
		m.latency = append(m.latency, many)
		m.tail = append(m.tail, one)
		m.rounds = append(m.rounds, round{ops: 2, wall: one + many, cpu: selfCPU() - cpu0})
		if m.digestOps < 4 {
			fmt.Fprintf(h, "%d %v\n", res.TotalInfections, res.Daily)
			m.digestOps++
		}
	}
	m.rssMB = selfPeakRSSMB()
	m.digest = hex.EncodeToString(h.Sum(nil))
	return m, ctx.Err()
}

// --- night-batch --------------------------------------------------------

// nightFaults is the failure mix of the faulty nights.
func nightFaults(seed uint64) faults.Spec {
	return faults.Spec{Seed: seed, TaskCrashProb: 0.05, DBRefusalProb: 0.025, TransferStallProb: 0.025}
}

// nightCycle is the number of nights after which the mix repeats: the three
// Table I families, each failure-free and under faults.
const nightCycle = 6

// nightConfig is night n of the stream.
func nightConfig(seed uint64, n int) core.NightConfig {
	cfg := core.NightConfig{
		Spec: core.TableI()[(n/2)%3], Heuristic: "FFDT-DC",
		Seed: mix(seed, streamNight, n), Day: n,
	}
	if n%2 == 1 {
		cfg.Faults = nightFaults(mix(seed, streamNightFault, n))
	}
	return cfg
}

// checkNight holds a night report to the accounting identities.
func checkNight(r *core.NightReport) error {
	if r.Completed+len(r.Shed) != r.Tasks {
		return fmt.Errorf("night %d: completed %d + shed %d != tasks %d", r.Config.Day, r.Completed, len(r.Shed), r.Tasks)
	}
	if !r.Config.Faults.Enabled() && (!r.FitsWindow || r.Completed != r.Tasks) {
		return fmt.Errorf("failure-free night %d: fits=%v completed %d of %d", r.Config.Day, r.FitsWindow, r.Completed, r.Tasks)
	}
	return nil
}

// runNight is one op.
func runNight(ctx context.Context, p *core.Pipeline, cfg core.NightConfig) (*core.NightReport, time.Duration, error) {
	t0 := time.Now()
	r, err := p.RunNightCtx(ctx, cfg)
	d := time.Since(t0)
	if err == nil {
		err = checkNight(r)
	}
	return r, d, err
}

// nightBatchE2E is the paper's own contribution: packing, backfilled
// execution, the recovery loop and the transfer ledger. It touches no ABM.
func nightBatchE2E(ctx context.Context, e *env) (*measured, error) {
	p, setupS, err := repeatSetup(func() (*core.Pipeline, error) {
		p := core.NewPipeline(e.seed)
		_, _, err := runNight(ctx, p, nightConfig(e.seed, 0)) // warm-up night
		return p, err
	}, func(*core.Pipeline) error { return nil })
	if err != nil {
		return nil, err
	}
	m := &measured{setupS: setupS, tailQ: 0.75}
	h := sha256.New()
	// Whole cycles only, so every run — and every round, which is one
	// cycle — times the same mix of nights.
	var cycle round
	cpu0 := selfCPU()
	for n, start := nightCycle, time.Now(); (n%nightCycle != 0 || time.Since(start) < e.seconds) && ctx.Err() == nil; n++ {
		m.attempted++
		r, d, err := runNight(ctx, p, nightConfig(e.seed, n))
		cycle.wall += d
		if err != nil {
			m.failed++
			m.errs = append(m.errs, err.Error())
		} else {
			cycle.ops++
			m.latency = append(m.latency, d)
			if m.digestOps < 2*nightCycle {
				fmt.Fprintf(h, "%d %d %d %d %v %v\n", r.Tasks, r.Completed, len(r.Shed), r.Retries, r.Makespan, r.Utilization)
				m.digestOps++
			}
		}
		if (n+1)%nightCycle == 0 {
			cycle.cpu = selfCPU() - cpu0
			m.rounds = append(m.rounds, cycle)
			cycle, cpu0 = round{}, selfCPU()
		}
	}
	m.rssMB = selfPeakRSSMB()
	m.digest = hex.EncodeToString(h.Sum(nil))
	return m, ctx.Err()
}

// --- traced runs ----------------------------------------------------------

// kernelScaleTrace spans network generation and partitioning, then pairs of
// runs with one child span per tick phase at 1 shard and at nproc shards.
func kernelScaleTrace(ctx context.Context, e *env, l ledger) (*measured, error) {
	var net *synthpop.Network
	gen, err := e.timed("synthpop.generate", 0, 0, func() (err error) {
		net, err = kernelNet(e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	part, _ := e.timed("synthpop.partition", 0, 0, func() error {
		net.PartitionNodesAligned(e.nproc, 0.05, 64)
		return nil
	})
	l["synthpop.generate_ms"], l["synthpop.partition_ms"] = ms(gen), ms(part)
	l["synthpop.nodes"], l["synthpop.edges"] = float64(net.NumNodes()), float64(net.NumEdges())

	m := &measured{}
	var allocs []float64
	var infections int64
	for i, start := 1, time.Now(); time.Since(start) < e.seconds && ctx.Err() == nil; i++ {
		simSeed := mix(e.seed, streamKernel, i)
		var one, many *epihiper.Result
		mb, err := allocMB(func() (err error) {
			one, err = e.tracedSim("epihiper.s1", i, kernelConfig(net, 1, simSeed))
			return err
		})
		if err == nil {
			many, err = e.tracedSim("epihiper.sN", i, kernelConfig(net, e.nproc, simSeed))
		}
		if err == nil && !reflect.DeepEqual(one, many) {
			err = fmt.Errorf("pair %d: result at 1 shard differs from result at %d shards", i, e.nproc)
		}
		m.book(err)
		if err == nil {
			allocs = append(allocs, mb)
			if infections == 0 { // the first pair's, so the count repeats exactly
				infections = one.TotalInfections
			}
		}
	}
	s1, sN := e.tr.durations("epihiper.s1"), e.tr.durations("epihiper.sN")
	m.latency = sN
	l["epihiper.new_ms"] = medianMS(e.tr.durations("epihiper.s1.new"))
	e.simLedger(l, "epihiper.s1", "s1")
	e.simLedger(l, "epihiper.sN", "sN")
	l["epihiper.infections"] = float64(infections)
	l["epihiper.alloc_mb_per_run"] = median(allocs)
	if len(s1) > 0 && len(sN) > 0 {
		l["epihiper.ns_per_edge_tick"] = median(nsOf(s1)) / (float64(net.NumEdges()) * kernelDays)
		l["epihiper.shard_speedup_x"] = median(nsOf(s1)) / median(nsOf(sN))
	}
	return m, ctx.Err()
}

// nightBatchTrace spans whole nights, then the packing and the execution of
// one prediction night on their own.
func nightBatchTrace(ctx context.Context, e *env, l ledger) (*measured, error) {
	p := core.NewPipeline(e.seed)
	m := &measured{}
	var util, retries, shed, moved []float64
	for n, start := nightCycle, time.Now(); (n%nightCycle != 0 || time.Since(start) < e.seconds/2) && ctx.Err() == nil; n++ {
		var r *core.NightReport
		d, err := e.timed("core.night", 0, n, func() (err error) {
			r, _, err = runNight(ctx, p, nightConfig(e.seed, n))
			return err
		})
		m.book(err)
		if err != nil {
			continue
		}
		m.latency = append(m.latency, d)
		if !r.Config.Faults.Enabled() && n < 2*nightCycle {
			util = append(util, r.Utilization) // the first cycle's, so the median repeats exactly
		}
		retries, shed = append(retries, float64(r.Retries)), append(shed, float64(len(r.Shed)))
		moved = append(moved, float64(r.ConfigBytes+r.SummaryBytes)/(1<<20))
	}
	l["core.night_utilization"] = median(util)
	l["core.retries_per_night"], l["core.shed_per_night"] = mean(retries), mean(shed)
	l["transfer.bytes_per_night"] = mean(moved)

	// The prediction night's tasks, as core builds them.
	row := core.TableI()[1]
	tasks := sched.Workload{Cells: row.Cells, Replicates: row.Replicates,
		Time: sched.DefaultTimeModel(), MaxInterventionFactor: 4}.Tasks(stats.NewRNG(mix(e.seed, streamNight, 0)))
	constraints := sched.Constraints{TotalNodes: p.Remote.Nodes, DBBound: sched.DefaultDBBounds(p.DBConnBound)}
	var schedule *sched.Schedule
	for i := 0; i < 5 && ctx.Err() == nil; i++ {
		_, err := e.timed("sched.ffdtdc", 0, i, func() (err error) {
			schedule, err = sched.FFDTDC(tasks, constraints)
			return err
		})
		if err == nil {
			_, err = e.timed("cluster.exec", 0, i, func() error {
				if res := cluster.ExecuteLevelSync(schedule, p.Window.Seconds()); len(res.Records)+len(res.Unstarted) != len(tasks) {
					return fmt.Errorf("level-sync execution lost tasks: %d run + %d unstarted of %d", len(res.Records), len(res.Unstarted), len(tasks))
				}
				return nil
			})
		}
		m.book(err)
	}
	l["sched.ffdtdc_ms"] = medianMS(e.tr.durations("sched.ffdtdc"))
	l["cluster.exec_ms"] = medianMS(e.tr.durations("cluster.exec"))
	if schedule != nil {
		l["sched.approx_ratio"] = sched.ApproxRatio(schedule, tasks)
	}
	return m, ctx.Err()
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
