#!/usr/bin/env bash
# Builds the daemon benchmark from this checkout's source and runs it.
# Every build and run artefact stays under .bench_build at the checkout
# root; the Go toolchain is kept offline and local.
#
#   bash daemonbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/daemonbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/daemonbench" && go build -o "$out/daemonbench/daemonbench" .)
exec "$out/daemonbench/daemonbench" -out "$out/daemonbench" "$@"
