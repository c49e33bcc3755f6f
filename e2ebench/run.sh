#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload solve-hit --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration and
# telemetry files, and the traced run's span files stay under
# .bench_build/ in the working directory. The build fails, and the
# script exits non-zero without printing a result, when the module the
# benchmark drives is not next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --span-dir "$out" "$@"
