#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash bench/run.sh -workload open_day -seed 1 -seconds 15 -trace 0
#
# The build cache, the binary and the traces stay in .bench_build/ under
# the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# A tree that is not a git checkout has no revision to stamp.
(cd bench && { go build -o "$out/bench" . 2>/dev/null || go build -buildvcs=false -o "$out/bench" .; })
exec "$out/bench" "$@"
