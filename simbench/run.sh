#!/usr/bin/env bash
# Builds the simulator benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash simbench/run.sh --workload age-full --seed 1 --seconds 20 --trace 0
#   bash simbench/run.sh compare <set-dir-A> <set-dir-B>
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, result stores,
# spans and CPU profiles.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/simbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/simbench" .)
exec "$out/simbench" -work "$out" "$@"
