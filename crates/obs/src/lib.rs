//! # velox-obs
//!
//! Zero-dependency observability substrate for the Velox reproduction.
//!
//! Velox's §6 lifecycle story — staleness detection, per-user error
//! tracking, retrain triggers, rollback — is fundamentally a *monitoring*
//! problem, and its successor Clipper makes latency-SLO observability a
//! first-class system component. This crate gives every layer of the
//! workspace a shared, std-only instrumentation vocabulary:
//!
//! - [`Counter`] / [`Gauge`]: single relaxed atomics; nanoseconds of
//!   overhead per update, safe on the hottest serving paths.
//! - [`Histogram`]: a lock-free log₂-bucketed latency histogram recording
//!   nanosecond samples into 64 power-of-two buckets, from which p50 / p95 /
//!   p99 / max are derived without ever taking a lock on the record path.
//! - [`Timer`] and [`time_scope!`]: a cheap span timer (two `Instant`
//!   reads) that records into a histogram either explicitly or on scope
//!   exit.
//! - [`EventLog`]: a bounded ring buffer of typed lifecycle events
//!   ([`EventKind`]) — version swaps, retrain start/finish, rollbacks,
//!   staleness trips, cache repopulations — so "what did the system do and
//!   when" survives past the moment it happened.
//! - [`Registry`]: a named collection of the above, snapshotable as plain
//!   data ([`RegistrySnapshot`]) and renderable as Prometheus-style text
//!   exposition for the REST `/metrics` endpoint.
//! - [`Tracer`] / [`TraceContext`] / [`SpanRing`] (module [`trace`]):
//!   end-to-end request tracing with head + tail sampling, lock-free
//!   per-node span rings, and span-tree reassembly — the "where did the
//!   p99 go" companion to the histograms above.
//!
//! ## Metric naming scheme
//!
//! Metrics follow `velox_<component>_<what>_<unit-or-total>`:
//! counters end in `_total`, latency histograms in `_latency_ns`, gauges
//! are bare. Dimensions (endpoint, node, table, strategy) are expressed as
//! labels, e.g. `velox_http_request_latency_ns{endpoint="predict"}`.
//!
//! ## Overhead
//!
//! Counters are one `fetch_add(Relaxed)`. A histogram record is three
//! relaxed `fetch_add`s plus one `fetch_max`. A timer span adds two
//! monotonic clock reads. Nothing on a record path allocates, locks, or
//! syscalls (event recording takes a short mutex but sits only on cold
//! lifecycle paths).

#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod registry;
pub mod timer;
pub mod trace;

pub use events::{Event, EventKind, EventLog};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricSample, MetricValue, Registry, RegistrySnapshot};
pub use timer::{SpanTimer, Timer};
pub use trace::{
    build_tree, structure, ActiveSpan, KeepDecision, KeepReason, KeptTrace, RootSpan, SpanKind,
    SpanRecord, SpanRing, SpanStatus, TraceConfig, TraceContext, TraceNode, Tracer, FRONT_NODE,
};
