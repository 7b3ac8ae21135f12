#!/usr/bin/env bash
# The perf trajectory: one untraced run of all four benchmark workloads
# (`benchmark/run.sh --workload all --trace 0`, default seed, 25 s each),
# compared with the harness's own `compare` against the committed
# BENCH_baseline.json. Exits non-zero when an end-to-end metric is `worse`
# than the baseline by more than its bound, when a verification checksum
# changed, or when a run was not correct; `unresolved` rows (either run's
# own spread exceeds the bound) do not fail it.
#
#   scripts/bench.sh             run + compare (~2 min, plus the first build)
#   scripts/bench.sh --refresh   run, then make this run the baseline
#
# The baseline's `provenance` names the commit and the box (nproc, kernel,
# WAL filesystem) that produced it: compared on another box, the verdicts
# measure the box, not the change. Only a PR that claims a performance
# gain refreshes the baseline, from its own change run; every other PR
# compares against it and leaves it alone.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$(pwd)/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cd "$root"

refresh=0
case "${1:-}" in
  "") ;;
  --refresh) refresh=1 ;;
  *) echo "usage: scripts/bench.sh [--refresh]" >&2; exit 2 ;;
esac

baseline=BENCH_baseline.json
result=benchmark/out/result-all-seed20150104-trace0.json
rm -f "$result"
bash benchmark/run.sh --workload all --trace 0
if [ "$refresh" = 1 ]; then
  # The output directory is where this checkout lives, not a property of
  # the box; leave it out of the committed file. A run of uncommitted code
  # is not HEAD's: its sha gets git's `-dirty` suffix.
  dirty=""
  git diff --quiet HEAD -- . ':!BENCH_baseline.json' || dirty="-dirty"
  sed -e 's/,"out_dir":"[^"]*"//' \
    -e "s/\"git_sha\":\"\\([^\"]*\\)\"/\"git_sha\":\"\\1$dirty\"/" "$result" >"$baseline"
  echo "bench: $baseline refreshed from $result"
  exit 0
fi
"$target/release/compare" "$baseline" "$result"
