#!/usr/bin/env bash
# Builds the benchmark and the replicaserved daemon from the checkout's
# sources into .bench_build, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload chain-1e4 --seed 1 --seconds 20 --trace 0
#
# Every Go cache, config and module directory points into .bench_build,
# so a run reads and writes nothing outside the checkout but the Go
# toolchain itself.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(
	cd "$root/perfbench"
	go build -o "$build/perfbench.bin" .
	go build -o "$build/replicaserved" replicatree/cmd/replicaserved
) >&2
exec "$build/perfbench.bin" -bin "$build/replicaserved" -out "$build/out" "$@"
