//! The keep-alive suite of `velox-rest` — one connection per client,
//! pipelined requests in order, prompt shutdown with parked connections,
//! idle-closed connections redialed without a double apply, and a shed
//! flood that spawns no thread per connection — run from the root package
//! so tier-1 `cargo test -q` covers the shared connection pool. One
//! source, two runners.

#[path = "../crates/rest/tests/keep_alive.rs"]
mod suite;
