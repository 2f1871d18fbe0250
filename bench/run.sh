#!/usr/bin/env bash
# Builds epibench from source and runs it with the given arguments. Every
# file the build and the run write stays inside the checkout, under
# .bench_build/ (build cache, binaries, trace output).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o ../.bench_build/epibench ./epibench
exec .bench_build/epibench "$@"
