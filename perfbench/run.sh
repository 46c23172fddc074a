#!/usr/bin/env bash
# Builds the benchmark and the havoqd binary from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOPROXY=off XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/havoqd" havoqgt/cmd/havoqd)
exec "$out/perfbench" "$@"
