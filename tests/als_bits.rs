//! The ALS bit-identity suite of `velox-batch`, run from the root package
//! so tier-1 `cargo test -q` covers it (the crate suites otherwise only run
//! through `scripts/verify.sh`). One source, two runners.

#[path = "../crates/batch/tests/als_bits.rs"]
mod suite;
