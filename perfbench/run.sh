#!/usr/bin/env bash
# Builds mdsd and the perfbench program from the sources of the checkout it
# is run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload solve_ding --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands in
# .bench_build/ there: binaries, the Go build cache, scratch inputs, traces
# and per-run result files. The build is offline (GOPROXY=off); the perfbench
# module imports the repository through a replace directive. Build output
# goes to stderr so the last stdout line stays the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/mdsd" ./cmd/mdsd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -checkout "$root" "$@"
