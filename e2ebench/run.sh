#!/usr/bin/env bash
# Builds laer-serve and the benchmark from the tree under test, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-herd --seed 1 --seconds 12 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

go build -o "$out/bin/laer-serve" ./cmd/laer-serve
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" --serve-bin "$out/bin/laer-serve" --work-dir "$out/run" "$@"
