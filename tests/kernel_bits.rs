//! The dense-kernel bit-identity suite of `velox-linalg`, run from the root
//! package so tier-1 `cargo test -q` covers it (the crate suites otherwise
//! only run through `scripts/verify.sh`). One source, two runners.

#[path = "../crates/linalg/tests/kernel_bits.rs"]
mod suite;
