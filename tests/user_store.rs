//! The user-store suite of `velox-cluster`, run from the root package so
//! tier-1 `cargo test -q` covers the one holder of per-user online state
//! (the crate suites otherwise only run through `scripts/verify.sh`). One
//! source, two runners.

#[path = "../crates/cluster/tests/user_store.rs"]
mod suite;
