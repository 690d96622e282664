#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every build product, temporary file, WAL directory and
# trace stays under .bench_build/ there:
#
#   bash e2ebench/run.sh --workload paper-figures --seed 1 --seconds 30 --trace 0
#
# Arguments are passed to the benchmark; see e2ebench/doc.go.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
