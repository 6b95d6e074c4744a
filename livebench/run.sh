#!/usr/bin/env bash
# Builds the live loopback benchmark from source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash livebench/run.sh --workload fc-qsgd4 --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build
# in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
go -C "$root/livebench" build -o "$out/livebench" . >&2
exec "$out/livebench" "$@"
