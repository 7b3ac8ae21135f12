//! The randomized-property suite of `velox-storage` (LRU against a
//! reference model, codec round trips, namespace swaps), run from the root
//! package so tier-1 `cargo test -q` covers it. One source, two runners.

#[path = "../crates/storage/tests/properties.rs"]
mod suite;
