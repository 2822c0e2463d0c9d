#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root, with the benchmark's own flags:
#
#   bash benchmark/run.sh --workload sim-helios-deep --seed 7 --seconds 8 --trace 0
#
# The build cache, the binary, the stores and the spans all stay under
# .bench_build/ in the checkout, and so does the go command's telemetry,
# which it keeps under the user's configuration directory. The build is
# offline: the module has no dependencies outside this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -dir "$out" "$@"
