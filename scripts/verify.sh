#!/usr/bin/env bash
# The full offline verification gate: build, tests, lints, formatting.
# The workspace has zero external dependencies, so everything here must
# succeed with the crates.io registry unreachable (--offline enforces it).
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

echo "==> net serving latency smoke (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_net -- --smoke > /dev/null

echo "==> tracing overhead smoke (traced delta <1.2/1.6 µs, offline)"
cargo run --release --offline -q -p velox-bench --bin trace_overhead -- --smoke > /dev/null

echo "==> chaos availability smoke (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_chaos -- --smoke > /dev/null

echo "==> network chaos availability + zero-acked-loss smoke (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_chaos_net -- --smoke > /dev/null

echo "==> rebalance availability + zero-acked-loss smoke, both transports (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_rebalance -- --smoke > /dev/null

echo "==> chaos-rebalance smoke: aborted/resumed migrations under fire, both transports (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_chaos_rebalance -- --smoke > /dev/null

echo "==> recovery durability smoke (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_recovery -- --smoke > /dev/null

echo "==> adaptive-batching serving smoke: >=2x throughput, <1% SLO violations (offline)"
cargo run --release --offline -q -p velox-bench --bin abl_serve -- --smoke > /dev/null

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "verify: all gates passed"
