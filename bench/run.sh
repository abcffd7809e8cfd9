#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root, e.g.
#
#   bash bench/run.sh --workload ingest-cold --seed 1 --seconds 15 --trace 0
#
# Every build artifact, the Go build cache and the harness's temp files
# live under .bench_build/ in the current directory, so a run reads and
# writes nothing outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
