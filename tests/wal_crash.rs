//! The WAL crash-injection battery of `velox-storage`, run from the root package
//! so tier-1 `cargo test -q` covers it. One source, two runners.

#[path = "../crates/storage/tests/wal_crash.rs"]
mod suite;
