#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot_mac_zipf --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root. The build is offline (GOPROXY=off, local
# toolchain) and fails when the repository around perfbench/ is absent.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The benchmark measures the switch's defaults, whatever the caller's
# environment selects.
unset OFMTL_BACKEND OFMTL_MEGAFLOW

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
