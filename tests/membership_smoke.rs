//! The two-node membership smoke of `velox-cluster`, run from the root
//! package so tier-1 `cargo test -q` covers the migration state machine
//! (the crate suites otherwise only run through `scripts/verify.sh`). One
//! source, two runners.

#[path = "../crates/cluster/tests/membership_smoke.rs"]
mod suite;
