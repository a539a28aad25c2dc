#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
