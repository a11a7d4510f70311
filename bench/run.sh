#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source inside the
# checkout — binary and Go build cache both under .bench_build, so
# nothing is written outside it — and runs it from the checkout's root
# with the arguments given.
#
#   bash bench/run.sh --workload get_8m --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # the whole suite, one report
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/dialga-bench" .) >&2
cd "$root"
exec "$build/dialga-bench" "$@"
