#!/usr/bin/env bash
# Builds rd2d and the benchmark from this checkout's sources, then runs the
# benchmark from the checkout root. Arguments go to the benchmark:
#
#   bash rd2dbench/run.sh --workload h2-stream --seed 1 --seconds 30 --trace 0
#   bash rd2dbench/run.sh --workload all
#
# Binaries, the Go build cache and the benchmark's scratch files stay inside
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/rd2d" ./cmd/rd2d
(cd rd2dbench && go build -o "$out/rd2dbench" .)
exec "$out/rd2dbench" -rd2d "$out/rd2d" -work "$out/work" "$@"
