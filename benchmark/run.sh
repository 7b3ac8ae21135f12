#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh                       all four workloads, untraced then traced
#   benchmark/run.sh --smoke               the same in ~2 s per workload, checks on
#   benchmark/run.sh --twice               the untraced set twice, then `compare`
#   benchmark/run.sh --soak 60             the connection-per-request soak
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the JSON summary
#
# Everything it writes goes under benchmark/out/ and the cargo target
# directory ($CARGO_TARGET_DIR, default benchmark/target).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# A relative CARGO_TARGET_DIR is relative to where the caller stood.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
out="$root/benchmark/out"

VELOX_BENCH_GIT_SHA="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export VELOX_BENCH_GIT_SHA

# Build output goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bench="$target/release/velox-benchmark"
compare="$target/release/compare"

twice=0
one_run=0
pass=()
for arg in "$@"; do
  case "$arg" in
    --twice) twice=1 ;;
    --workload | --trace | --soak) one_run=1; pass+=("$arg") ;;
    *) pass+=("$arg") ;;
  esac
done
run() { "$bench" --out "$out" "$@" ${pass[@]+"${pass[@]}"}; }

if [ "$twice" = 1 ]; then
  run --workload all --trace 0 --label twice-a
  run --workload all --trace 0 --label twice-b
  "$compare" "$out/result-twice-a.json" "$out/result-twice-b.json"
elif [ "$one_run" = 1 ]; then
  run
else
  run --workload all --trace 0
  run --workload all --trace 1
fi
