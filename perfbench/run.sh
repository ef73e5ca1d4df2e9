#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash perfbench/run.sh --workload fill --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary build files and the binary stay under
# .bench_build in the current directory. The build fails, and the script
# exits non-zero, when the repository's sources are not beside perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTELEMETRY=off GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
