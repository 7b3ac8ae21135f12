//! The durability REST suite of `velox-rest` — checkpoint and recover
//! over HTTP, memory-only refusals, and a recover that swaps the
//! recovered deployment in for every route — run from the root package so
//! tier-1 `cargo test -q` covers it. One source, two runners.

#[path = "../crates/rest/tests/durability_endpoints.rs"]
mod suite;
