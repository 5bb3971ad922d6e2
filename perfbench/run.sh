#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
#
#   bash perfbench/run.sh --workload build-dih --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products, the Go build cache and
# every temporary file stay under $CARGO_TARGET_DIR (default .bench_build),
# so the run writes nothing outside the checkout. Build output goes to
# standard error; the last line of standard output is the result object.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$root/$out
mkdir -p "$out/tmp" "$out/gocache" "$out/gomod" "$out/config"

# XDG_CONFIG_HOME keeps the go command's settings and telemetry files in
# the checkout too.
export GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out" "$@"
