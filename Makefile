# Repeatable gates for the repo. `make tier1` is the seed gate (build, vet and
# tests); `make race` runs the full suite under the race detector — the
# fault-injection layer, the popdb/workflow concurrency paths and the
# scenario service's front door and queue must stay race-clean. `make vet`
# and `make fmt-check` are static gates. `make check` runs all of them.

GO ?= go

.PHONY: tier1 race vet fmt-check fuzz check bench-test loadtest

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/mcmc ./internal/calib ./internal/obs
	$(GO) test -race ./internal/castore
	$(GO) test -race ./internal/fidelity
	$(GO) test -race ./internal/scenario ./cmd/loadgen ./cmd/episerve
	$(GO) test -race -run 'Reference|Snapshot|WhatIf|Shard|Determinism|Fork|FanOut|Counters|Dominates|Prediction|Refit' ./internal/epihiper ./internal/core
	$(GO) test -race -run 'Build|Golden|Layout|DerivedColumns' ./internal/synthpop

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

# Benchmarks: `bash bench/run.sh` (epibench) is the gate. The paper-figure
# benchmarks (root) and the zero-alloc / complexity ones (beside their code)
# run with `go test -run '^$$' -bench <Name> -benchmem <package>`.

# Deterministic short load profile over scenario.Service: the 64-client load
# proof and the two-client closed loop that must never be refused (beside the
# load generator in cmd/loadgen), and the chaos gate (runner crashes, client
# cancels and a drain deadline over one queue; every waiter settles exactly
# once, no spec runs twice, nothing leaks; internal/scenario). Non-gating in
# CI, cheap enough to run locally on demand.
loadtest:
	$(GO) test -race -run 'TestLoadProof|TestTwoClientClosedLoopNeverRefused|TestChaosOneQueue' -v -count=1 ./cmd/loadgen ./internal/scenario

# Short exploratory fuzz pass over the scheduler, packer-vs-reference,
# executor, snapshot-codec,
# kernel-vs-reference, kernel JSON-config and disease-model decoders,
# metapop closed-form-vs-dense, fidelity-router, scenario-spec,
# submit, status, result and cancel handler, reply-writer-vs-MarshalIndent,
# network/partition file-loader
# and network-builder targets (the seed corpus always runs as part of tier1).
fuzz:
	$(GO) test ./internal/sched -fuzz FuzzRelaxedColoring -fuzztime 10s
	$(GO) test ./internal/sched -fuzz FuzzScheduleRoundTrip -fuzztime 10s
	$(GO) test ./internal/sched -fuzz FuzzPackersMatchReference -fuzztime 10s
	$(GO) test ./internal/cluster -fuzz FuzzBackfillMatchesReference -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzSnapshotRoundTrip -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzKernelMatchesReference -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzParseJSONConfig -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzDiseaseModelJSON -fuzztime 10s
	$(GO) test ./internal/metapop -fuzz FuzzClosedFormMatchesDense -fuzztime 10s
	$(GO) test ./internal/fidelity -fuzz FuzzFidelityRoute -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzSpecNormalize -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzSubmitHandler -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzStatusHandler -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzResultHandler -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzCancelHandler -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzReplyMatchesMarshalIndent -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzReadNetworkBinary -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzReadNetworkCSV -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzReadPartitions -fuzztime 10s
	$(GO) test ./internal/synthpop -fuzz FuzzBuildMatchesOracle -fuzztime 10s

# The benchmark is its own module (bench/go.mod), so its unit tests do not
# ride the root `go test ./...`.
bench-test:
	cd bench && $(GO) test ./...

check: fmt-check vet tier1 race bench-test
