#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload lattice --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/path"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/path" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GO111MODULE=on GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
