# Repeatable gates for the repo. `make tier1` is the seed gate (build +
# tests); `make race` runs the full suite under the race detector — the
# fault-injection layer, the popdb/workflow concurrency paths and the
# scenario service's front door and pools must stay race-clean. `make vet`
# and `make fmt-check` are static gates. `make check` runs all of them.

GO ?= go

.PHONY: tier1 race vet fmt-check fuzz check bench-json bench-test loadtest

tier1:
	$(GO) build ./...
	$(GO) vet ./internal/obs
	$(GO) test ./...
	$(GO) test -race ./internal/mcmc ./internal/calib ./internal/obs
	$(GO) test -race ./internal/castore
	$(GO) test -race ./internal/fidelity
	$(GO) test -race ./internal/scenario ./internal/replica
	$(GO) test -race -run 'Reference|Snapshot|WhatIf|Shard|Determinism' ./internal/epihiper ./internal/core
	$(GO) test -race -run 'Builder|Golden' ./internal/synthpop

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails when any file needs `gofmt -w`, listing the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Machine-readable record of the performance benchmarks: the Fig 7
# runtime-vs-size sweep, the steady-state transmission-kernel pass, the
# calibration stack (dense vs Woodbury likelihood, serial vs multi-chain
# Sample at a fixed draw budget), the observability overhead pair
# (replicate fan-out with tracing off vs on — budget ≤3% — plus the obs
# primitive costs), and the what-if fan-out sweep (N=8 scenarios unshared
# vs branched from shared-prefix snapshots, cold and warm cache, with the
# speedup_x acceptance metric), the fidelity ladder (emulator hit vs
# corrected metapop vs escalate-to-ABM, with speedup_x = ABM over emulator
# ns/op — the serving tier's ≥100× acceptance metric), and the shard
# scaling curve (full kernel at 1/2/4/8 shards over the golden network),
# with -benchmem so the zero-allocation claims are part of the artifact.
# The serving-tier observability overhead proof (paired off/on stacks
# serving alternating real-pipeline requests; overhead-pct budget ≤3) rides
# along; the serving tier's throughput and latency are priced by
# bench/run.sh, not here. The nightly pipeline closes the list: the backfill
# executor alone at 2k/8k/32k tasks (ns/task near-flat, allocs/op constant)
# and the six-night `night-batch` mix (ms/night, MB/night allocated).
# CI uploads the file, under this one name, as a non-gating artifact.
BENCH_JSON ?= BENCH.json
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7TopRuntimeVsSize$$' -benchmem . > bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkWhatIfFanout$$' -benchmem . >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTransmissionPhase$$' -benchmem ./internal/epihiper >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkLogLik|BenchmarkSample' -benchmem ./internal/calib >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkReplicatesObs' -benchmem ./internal/epihiper >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve|BenchmarkSpanStartEnd|BenchmarkWritePrometheus' -benchmem ./internal/obs >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFidelityLadder' -benchmem ./internal/fidelity >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' -benchmem ./internal/epihiper >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServingObsOverhead$$' -benchmem ./internal/scenario >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkBackfillScaling$$' -benchmem . >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNightMix$$' -benchmem ./internal/core >> bench_raw.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) < bench_raw.txt
	@rm -f bench_raw.txt

# Deterministic short load profile over scenario.Service at several
# replicas: the 64-client load proof, the two-client closed loop that must
# never be refused, and the chaos gate (kill one of three replicas mid-run;
# every job completes exactly once on a peer). The tests sit beside the load
# generator in internal/replica. Non-gating in CI, cheap enough to run
# locally on demand.
loadtest:
	$(GO) test -race -run 'TestLoadProof|TestTwoClientClosedLoopNeverRefused|TestChaosKillReplicaMidRun' -v -count=1 ./internal/replica

# Short exploratory fuzz pass over the scheduler, executor, snapshot-codec,
# kernel-vs-reference, fidelity-router, scenario-spec and network/partition
# file-loader targets (the seed corpus always runs as part of tier1).
fuzz:
	$(GO) test ./internal/sched -fuzz FuzzRelaxedColoring -fuzztime 10s
	$(GO) test ./internal/sched -fuzz FuzzScheduleRoundTrip -fuzztime 10s
	$(GO) test ./internal/cluster -fuzz FuzzBackfillMatchesReference -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzSnapshotRoundTrip -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzKernelMatchesReference -fuzztime 10s
	$(GO) test ./internal/fidelity -fuzz FuzzFidelityRoute -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzSpecNormalize -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzReadNetworkBinary -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzReadNetworkCSV -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzReadPartitions -fuzztime 10s

# The benchmark is its own module (bench/go.mod), so its unit tests do not
# ride the root `go test ./...`.
bench-test:
	cd bench && $(GO) test ./...

check: fmt-check vet tier1 race bench-test
