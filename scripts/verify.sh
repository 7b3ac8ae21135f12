#!/usr/bin/env bash
# The full offline verification gate: build, tests, lints, formatting, then
# every `--smoke` gate. The workspace has zero external dependencies, so
# everything here must succeed with the crates.io registry unreachable
# (--offline enforces it).
#
# A build, test, clippy or fmt failure stops the script. The smoke gates all
# run even when one fails, and the script ends with one line per gate:
#   PASS        the gate passed
#   UNRESOLVED  the gate's own spread straddles its threshold: this run can
#               neither pass nor fail the change (exit 0, said loudly)
#   FAIL        the gate failed (its log's tail is printed above)
# It exits non-zero only if some gate printed FAIL. Each gate's full output
# stays in target/verify-logs/<gate>.log. Last comes one info line, not a
# gate: the non-comment line count of crates/*/src (scripts/sloc.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --workspace --release --offline

# Every suite in the workspace — the root package's tests/ and each crate's
# unit, integration and doc tests — runs here, once.
echo "==> cargo test --workspace (offline)"
cargo test --workspace --release --offline -q

# The benchmark harness checks itself (fmt, clippy, its unit tests, a smoke
# run of all four workloads with every correctness check on) — and, because
# it reaches the system only through `velox::` re-exports, compiling it
# proves the seam listed in benchmark/README.md survived this change.
echo "==> benchmark/check.sh: harness self-check + the velox:: seam still compiles (offline)"
bash benchmark/check.sh

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

logs=target/verify-logs
mkdir -p "$logs"
verdicts=()

# smoke <bin> <what it gates>: runs `<bin> --smoke` and records its verdict.
smoke() {
  local bin=$1 log="$logs/$1.log" verdict
  echo "==> $bin --smoke: $2"
  if cargo run --release --offline -q -p velox-bench --bin "$bin" -- --smoke >"$log" 2>&1; then
    if grep -q '^UNRESOLVED' "$log"; then verdict=UNRESOLVED; else verdict=PASS; fi
  else
    verdict=FAIL
    tail -n 20 "$log"
  fi
  verdicts+=("$(printf '%-10s  %s --smoke' "$verdict" "$bin")")
}

smoke abl_net "net serving latency"
smoke trace_overhead "traced delta <1.2/1.6 µs at the fast-decile time slice"
smoke abl_chaos "chaos availability"
smoke abl_chaos_net "network chaos availability + zero acked loss"
smoke abl_rebalance "rebalance availability + zero acked loss, both transports"
smoke abl_chaos_rebalance "aborted/resumed migrations under fire, both transports"
smoke abl_recovery "recovery durability"
smoke abl_serve "adaptive batching: >=2x throughput, <1% SLO violations"

echo
echo "verify: smoke gates"
printf '%s\n' "${verdicts[@]}"
echo "info: $(bash scripts/sloc.sh | tail -n 1 | awk '{print $1}') non-comment lines in crates/*/src (scripts/sloc.sh)"
if printf '%s\n' "${verdicts[@]}" | grep -q '^FAIL'; then
  exit 1
fi
