#!/usr/bin/env bash
# Builds the chain benchmark from the checkout's source and runs it.
#
#   bash chainbench/run.sh --workload fleet-durable --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, WAL directories and
# span dumps.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$bench_dir" && go build -o "$out/chainbench" .)
cd "$root"
exec "$out/chainbench" "$@"
