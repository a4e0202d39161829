#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                 # every workload, each in a child process
#
# The Go build cache, the benchmark binary and traced runs' output all stay
# under .bench_build/, so nothing outside the checkout is read or written
# beyond the Go toolchain itself.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" PPROF_TMPDIR="$out/pprof"
go -C bench build -o "$out/pfsim-bench" .
exec "$out/pfsim-bench" "$@"
