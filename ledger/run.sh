#!/usr/bin/env bash
# Builds the daglayer daemon and the ledger benchmark from this checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash ledger/run.sh --workload cold-corpus --seed 7 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root" && go build -o "$out/bin/daglayer" ./cmd/daglayer)
(cd "$root/ledger" && go build -o "$out/bin/ledger" .)
exec "$out/bin/ledger" -daglayer "$out/bin/daglayer" "$@"
