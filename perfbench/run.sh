#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload retailer-read --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, span files and the snapshot file all stay
# under .bench_build in the current directory.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out" "$@"
