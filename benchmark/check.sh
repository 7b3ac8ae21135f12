#!/usr/bin/env bash
# The harness checks itself: formatting, lints, unit tests (percentiles,
# the open-loop scheduler, generator determinism, BENCHMARK.json in step
# with the tables), then a smoke run of all four workloads with every
# correctness check on. All offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest" -q
bash benchmark/run.sh --smoke
echo "benchmark/check.sh: all checks passed"
