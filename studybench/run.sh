#!/usr/bin/env bash
# Builds the end-to-end study benchmark from this checkout's sources and
# runs it with the given arguments. Run it from the repository root:
#
#   bash studybench/run.sh --workload spec-smoke-cold --seed 1 --seconds 25 --trace 0
#   bash studybench/run.sh steady -k 5
#
# Every build and run artefact (Go build cache, binary, temporary result
# stores) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp
export GOTOOLCHAIN=local
(cd "$root/studybench" && go build -o "$out/studybench" .)
exec "$out/studybench" -root "$root" -scratch "$out/tmp" "$@"
