#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload kv-mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build): the Go build cache and
# temporary files, the binary, cluster data directories and span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)

cd "$root"
exec "$out/e2ebench" --workdir "$out/run" --spans "$out/trace" "$@"
