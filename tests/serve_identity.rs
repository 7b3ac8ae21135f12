//! The batching suite of `velox-serve` — a batched pass is bit-identical
//! to a sequential one on every backend, lanes coalesce, AIMD backs off,
//! alias flips are atomic — run from the root package so tier-1
//! `cargo test -q` covers the serving tier (the crate suites otherwise
//! only run through `scripts/verify.sh`). One source, two runners.

#[path = "../crates/serve/tests/batching.rs"]
mod suite;
