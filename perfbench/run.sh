#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload bulk30 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and span files go to $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
