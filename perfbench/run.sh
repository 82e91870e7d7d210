#!/usr/bin/env bash
# Builds the wall-clock benchmark from the source in this checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tpch-analytic --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files, trace
# files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
