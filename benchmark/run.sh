#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# This is BENCHMARK.json's command; arguments pass through, e.g.
#   bash benchmark/run.sh --workload fleet_ops --seed 1 --seconds 30 --trace 0
# Everything it writes — Go's build cache, the binary, run directories
# with the daemons' WAL, span files — stays under the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/genio-benchmark"

mkdir -p "$build/tmp"
# Everything the go command writes stays in the checkout: build cache,
# scratch directory, module cache (empty: no dependencies) and its
# telemetry counters.
gobuild() {
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local go build "$@"
}

# Rebuild when any Go source of the repo is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && gobuild -o "$bin" .)
fi
cd "$root"
exec "$bin" -out "$here/out" "$@"
