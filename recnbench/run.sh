#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the repository root:
#
#	bash recnbench/run.sh --workload fig2a --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, scratch files, the
# go command's own config and telemetry files) stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$out/recnbench" . >&2
exec "$out/recnbench" "$@"
