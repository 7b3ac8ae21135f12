//! The WAL write/sync suite of `velox-storage`, run from the root package
//! so tier-1 `cargo test -q` covers it (the crate suites otherwise only
//! run through `scripts/verify.sh`). One source, two runners.

#[path = "../crates/storage/tests/wal_write_sync.rs"]
mod suite;
