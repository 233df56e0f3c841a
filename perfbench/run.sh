#!/usr/bin/env bash
# Builds rrserve from this checkout and the benchmark beside it, then runs
# the benchmark against that binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest_narrow --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the servers' data directories all
# live under .bench_build/ in the checkout (CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
go build -o "$out/rrserve" ./cmd/rrserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -rrserve "$out/rrserve" -workdir "$out/runs" "$@"
