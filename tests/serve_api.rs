//! The serving-tier REST suite of `velox-rest` — `GET /models` backend
//! listings, alias flips, batched predicts through each name's lane, and
//! typed registry errors as 400s — run from the root package so tier-1
//! `cargo test -q` covers the one name → model map. One source, two
//! runners.

#[path = "../crates/rest/tests/serve_api.rs"]
mod suite;
