//! # velox-rest
//!
//! The RESTful client interface of the Velox prototype (§8: "We have
//! completed an initial Velox prototype that exposes a RESTful client
//! interface").
//!
//! A dependency-free HTTP/1.1 + JSON front end over one
//! [`ServeTier`], served on the shared connection pool
//! (`velox_cluster::ConnPool`): one accept thread, and a bounded set of
//! workers that each serve one connection's requests — kept alive when
//! the client asks — parsing, dispatching to the model, and writing a
//! JSON response.
//!
//! The tier's registry is the one name → model map: every
//! `/models/{name}/*` route resolves `name` there. Predicts go through the
//! name's batching lane (a free lane serves on the request's own thread);
//! top-k, observe, stats, retrain, checkpoint and recover go through the
//! Velox deployment behind the name ([`ServeTier::velox`]), and answer
//! `400` for a backend that is not one. An unknown name is a `404`.
//! JSON ([`json`]) and HTTP framing ([`http`]) are implemented in-crate on
//! `std` only, per the workspace dependency policy.
//!
//! ## Routes
//!
//! | method & path | body | response |
//! |---|---|---|
//! | `GET /models` | — | `{"models": [Velox-backed names..], "backends": [..]}` |
//! | `POST /models/{name}/alias` | `{"version": v}` | `{"serving_version", "previous_version"}` |
//! | `POST /models/{name}/predict` | `{"uid": u, "item_id": i}` | `{"score", "backend_version", "batched", "cached", "bootstrapped"}` |
//! | `POST /models/{name}/topk` | `{"uid": u, "item_ids": [..]}` | `{"ranked": [[id, score]..], "served_item", "randomized"}` |
//! | `POST /models/{name}/observe` | `{"uid": u, "item_id": i, "y": y}` | `{"loss", "trained", "stale"}` |
//! | `POST /models/{name}/retrain` | — | `{"version"}` |
//! | `GET /models/{name}/stats` | — | system stats |
//! | `POST /models/{name}/checkpoint` | — | `{"seq", "wal_offset", ..}` |
//! | `POST /models/{name}/recover` | — | `{"replayed", "apply_failures", ..}` |
//! | `POST /cluster/predict` | `{"uid": u, "item_id": i}` | `{"score", "node", "routed", "cold_start"}` |
//! | `POST /cluster/observe` | `{"uid": u, "item_id": i, "y": y}` | `{"node", "ts", "shipped_to"}` |
//! | `GET /cluster/health` | — | `{"nodes": [{"node", "health"}..]}` |
//!
//! Raw (non-catalog) items can be passed to predict/observe as
//! `{"uid": u, "features": [..]}` instead of `item_id`.
//!
//! The `/cluster/*` routes appear when a cluster backend is attached with
//! [`RestServer::with_cluster`]: any `velox_cluster::Transport` — the
//! in-process simulator or `velox-net`'s loopback TCP runtime.
//!
//! `recover` rebuilds the deployment from its durable state and swaps it
//! in with the registry's own protocol — register, flip the alias, retire
//! the closed instance's version — so every route serves the recovered
//! instance from the next request on.
//!
//! [`ServeTier`]: velox_serve::ServeTier
//! [`ServeTier::velox`]: velox_serve::ServeTier::velox

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;

pub use client::{
    BreakerConfig, BreakerState, ClientBackend, ClientClusterObserve, ClientClusterPredict,
    ClientError, RetryPolicy, VeloxClient,
};
pub use server::{ClusterBackend, RestHandle, RestServer, ServerConfig};
