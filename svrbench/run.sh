#!/usr/bin/env bash
# Builds the svrlab benchmark from this checkout's source and runs it.
# Every build artefact, cache and temporary file stays under .bench_build
# in the checkout. Run from the repository root:
#
#   bash svrbench/run.sh --workload hubs-private --seed 42 --seconds 36 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
# The root module must be present: outside a full checkout the build fails
# and so does the benchmark.
(cd "$root/svrbench" && go build -o "$out/svrbench" .)
exec "$out/svrbench" "$@"
