//! The codec corruption fuzz of `velox-storage`, run from the root package
//! so tier-1 `cargo test -q` covers it. One source, two runners.

#[path = "../crates/storage/tests/codec_fuzz.rs"]
mod suite;
