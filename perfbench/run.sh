#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload svc-closed --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build and run artifact stays under
# .bench_build in that directory, and only a local Go toolchain is used.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
