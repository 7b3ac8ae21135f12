//! The control-plane property suite of `velox-cluster` over the simulator,
//! run from the root package so tier-1 `cargo test -q` covers migration,
//! abort and fail-over (the crate suites otherwise only run through
//! `scripts/verify.sh`). One source, two runners.

#[path = "../crates/cluster/tests/abort_rollback.rs"]
mod suite;
