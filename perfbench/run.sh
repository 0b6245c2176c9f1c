#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload powerlaw-batch --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build and run artefact (Go build
# cache, binary, shard stores, span files) stays under .bench_build/,
# and the last line of standard output is the result JSON object.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/shard ]; then
	echo "perfbench: run from the root of a repository checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out/work" --trace-out "$out/trace" "$@"
