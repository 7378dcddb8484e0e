#!/usr/bin/env bash
# Builds datacelld and the benchmark harness from the sources of the
# checkout it is run from, then runs the harness with the given flags:
#
#   bash perfbench/run.sh --workload fanout-having --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"

mkdir -p "$out/bin"
(
	cd "$bench"
	go build -o "$out/bin/datacelld" datacell/cmd/datacelld
	go build -o "$out/bin/perfbench" .
)
exec "$out/bin/perfbench" -server "$out/bin/datacelld" -workdir "$out" "$@"
