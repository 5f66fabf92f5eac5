#!/bin/sh
# Benchmark regression gate (the nightly workflow's first job, and step 11
# of scripts/ci.sh; also usable locally). Regenerates every benchmark
# record into OUTDIR (default: a temp directory) with
# `gatorbench -records` and diffs them against the checked-in BENCH_*.json
# baselines with cmd/benchdiff. Each metric carries its own gate, declared
# in cmd/gatorbench where the metric is measured: an exact match, a
# relative slack against the baseline, or an absolute floor or ceiling.
# A record or gated metric present on one side only also fails.
#
# This script never touches the checked-in baselines. To re-baseline after
# an intended change, run `go run ./cmd/gatorbench -table 2 -records .`
# and commit the rewritten BENCH_*.json files.
#
# Usage: scripts/benchdiff.sh [OUTDIR]
#   Pass an OUTDIR to keep the regenerated records around (CI uploads them
#   as artifacts when the gate fails).
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-}"
if [ -z "$OUT" ]; then
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT
fi

echo "== regenerating benchmark records into $OUT"
go run ./cmd/gatorbench -table 2 -records "$OUT" > /dev/null

echo "== diff vs checked-in records (per-metric gates)"
go run ./cmd/benchdiff . "$OUT"

echo "== benchdiff gate green"
