//! The REST server: route dispatch over a [`VeloxServer`], served on the
//! shared connection pool ([`velox_cluster::ConnPool`]) with HTTP/1.1
//! keep-alive.

use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use velox_cluster::{ConnPool, PoolConfig, Transport, TransportError};
use velox_core::server::ModelSchema;
use velox_core::{Velox, VeloxError, VeloxServer};
use velox_linalg::Vector;
use velox_models::Item;
use velox_obs::{
    build_tree, Gauge, KeepReason, Registry, RegistrySnapshot, SpanKind, SpanRecord, Timer,
    TraceNode, FRONT_NODE,
};
use velox_serve::{ServeDetail, ServeError, ServeTier, CLUSTER_BACKEND};

use crate::http::{read_request, write_response, HttpError, Request};
use crate::json::Json;

/// The cluster backend a [`RestServer`] can front: any [`Transport`]
/// implementation (the in-process simulator or `velox-net`'s loopback TCP
/// runtime), shared across request threads.
pub type ClusterBackend = Arc<dyn Transport + Send + Sync>;

const JSON_TYPE: &str = "application/json";
/// Prometheus text exposition content type.
const METRICS_TYPE: &str = "text/plain; version=0.0.4";
/// How many migration-ledger entries `/cluster/health` reports (newest
/// last); the full count still appears as `migrations_total`.
const MIGRATION_LEDGER_TAIL: usize = 32;
/// How long each step of shedding a connection may hold the accept
/// thread: draining the request the client already sent (so the close
/// behind the answer does not reset it away), then writing the `503`.
const SHED_DRAIN: Duration = Duration::from_millis(10);

/// Tuning knobs for the REST listener.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum connections being served at once — each pins one pool
    /// worker for as long as it is kept alive. Connections accepted past
    /// this limit are immediately answered `503` and closed (load
    /// shedding): under overload the server stays responsive and tells
    /// clients to back off, instead of queueing unboundedly until
    /// everything times out.
    pub max_in_flight: usize,
    /// Per-connection read timeout (slowloris guard); also how long a
    /// kept-alive connection may sit idle before the server closes it.
    pub read_timeout: std::time::Duration,
    /// Per-connection write timeout.
    pub write_timeout: std::time::Duration,
    /// How long a rendered `GET /metrics` exposition may be served from
    /// cache. Rendering merges and re-sorts every deployment's registry —
    /// linear in metric count — so an aggressive scraper (or many) could
    /// make observability itself a serving-path cost. Zero disables
    /// caching. The cache also invalidates immediately when the deployment
    /// set changes, so a scrape never misses a new model for a full TTL.
    pub metrics_cache_ttl: std::time::Duration,
    /// `Retry-After` value (in whole seconds, rounded up) attached to shed
    /// `503` responses, telling well-behaved clients how long to hold off
    /// before retrying instead of guessing with exponential backoff.
    pub shed_retry_after: std::time::Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 256,
            read_timeout: std::time::Duration::from_secs(30),
            write_timeout: std::time::Duration::from_secs(30),
            metrics_cache_ttl: std::time::Duration::from_millis(250),
            shed_retry_after: std::time::Duration::from_secs(1),
        }
    }
}

/// TTL + deployment-set cache for the rendered Prometheus exposition.
struct MetricsCache {
    ttl: std::time::Duration,
    entry: Mutex<Option<MetricsEntry>>,
}

struct MetricsEntry {
    rendered_at: Instant,
    /// Sorted deployment names at render time; a mismatch (model installed
    /// or removed) invalidates regardless of age.
    names: Vec<String>,
    body: String,
}

impl MetricsCache {
    fn new(ttl: std::time::Duration) -> Self {
        MetricsCache { ttl, entry: Mutex::new(None) }
    }

    fn get(
        &self,
        server: &VeloxServer,
        registry: &Registry,
        serving: Option<&Arc<ServeTier>>,
    ) -> String {
        if self.ttl.is_zero() {
            return metrics_text(server, registry, serving);
        }
        let mut names = server.deployment_names();
        names.sort();
        let mut entry = self.entry.lock().unwrap();
        if let Some(cached) = entry.as_ref() {
            if cached.rendered_at.elapsed() < self.ttl && cached.names == names {
                return cached.body.clone();
            }
        }
        let body = metrics_text(server, registry, serving);
        *entry = Some(MetricsEntry { rendered_at: Instant::now(), names, body: body.clone() });
        body
    }
}

/// The REST front end over a set of Velox deployments.
pub struct RestServer {
    deployments: Arc<VeloxServer>,
    /// REST-layer registry: per-endpoint request-latency histograms.
    registry: Arc<Registry>,
    config: ServerConfig,
    /// Optional cluster backend served under `/cluster/*`.
    cluster: Option<ClusterBackend>,
    /// Optional serving tier: adaptive batching + backend registry. When
    /// attached, predict routes go through its batching lanes.
    serving: Option<Arc<ServeTier>>,
}

/// Decrements the in-flight gauge when a request finishes, however it
/// finishes.
struct InFlightGuard<'a>(&'a Gauge);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Handle to a running listener: address for clients, shutdown for tests
/// and orderly exit. Dropping it shuts the listener down too.
pub struct RestHandle {
    pool: ConnPool,
}

impl RestHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.pool.local_addr()
    }

    /// Stops accepting connections, severs kept-alive ones, and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.pool.shutdown();
    }
}

/// What every connection's request loop shares.
struct Routes {
    deployments: Arc<VeloxServer>,
    registry: Arc<Registry>,
    metrics_cache: MetricsCache,
    cluster: Option<ClusterBackend>,
    serving: Option<Arc<ServeTier>>,
    in_flight: Arc<Gauge>,
}

impl RestServer {
    /// Wraps a deployment set with default listener tuning.
    pub fn new(deployments: Arc<VeloxServer>) -> Self {
        Self::with_config(deployments, ServerConfig::default())
    }

    /// Wraps a deployment set with explicit listener tuning.
    pub fn with_config(deployments: Arc<VeloxServer>, config: ServerConfig) -> Self {
        RestServer {
            deployments,
            registry: Arc::new(Registry::new()),
            config,
            cluster: None,
            serving: None,
        }
    }

    /// Attaches a cluster backend, enabling the `/cluster/*` routes. Any
    /// [`Transport`] works: the in-process simulator or the loopback TCP
    /// runtime — the REST layer can't tell them apart.
    pub fn with_cluster(mut self, cluster: ClusterBackend) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Attaches a serving tier. `POST /models/<name>/predict` routes
    /// through the tier's adaptive batching lane for any `name` registered
    /// there (other names keep the direct path), `GET /models` lists the
    /// registered backends with batch statistics, and
    /// `POST /models/<name>/alias` flips serving aliases. When a backend
    /// named [`CLUSTER_BACKEND`] is registered, `/cluster/predict` is
    /// batched through it too.
    pub fn with_serving(mut self, serving: Arc<ServeTier>) -> Self {
        self.serving = Some(serving);
        self
    }

    /// The REST layer's own metric registry (per-endpoint latency). The
    /// per-deployment registries are reached through the deployments
    /// themselves; `GET /metrics` merges all of them.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and serves
    /// until the returned handle is shut down, on up to `max_in_flight`
    /// pool workers.
    pub fn serve(self, addr: &str) -> std::io::Result<RestHandle> {
        let config = self.config;
        let registry = self.registry;
        let shed = registry.counter("velox_rest_shed_total");
        let accepted = registry.counter("velox_rest_connections_total");
        let routes = Routes {
            deployments: self.deployments,
            metrics_cache: MetricsCache::new(config.metrics_cache_ttl),
            cluster: self.cluster,
            serving: self.serving,
            in_flight: registry.gauge("velox_rest_in_flight_requests"),
            registry,
        };
        // Whole seconds, rounded up: Retry-After has one-second resolution
        // and "0" would tell clients to hammer a saturated server.
        let retry_after = config.shed_retry_after.as_secs_f64().ceil().max(1.0).to_string();
        let (read_timeout, write_timeout) = (config.read_timeout, config.write_timeout);
        let pool = ConnPool::bind(
            addr,
            PoolConfig { workers: config.max_in_flight, max_pending: 0, accepted, shed },
            move |stream, stop| {
                // A slow or idle client must not pin its worker forever
                // (slowloris), kept alive or not.
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_write_timeout(Some(write_timeout));
                serve_connection(&stream, &routes, stop);
            },
            move |stream| shed_connection(&stream, &retry_after),
        )?;
        Ok(RestHandle { pool })
    }
}

/// One connection's request loop: one reader for its whole life, so
/// pipelined bytes of the next request are never lost. Runs until the
/// client stops asking for keep-alive, goes quiet past the read timeout,
/// closes, or the server shuts down.
fn serve_connection(stream: &TcpStream, routes: &Routes, stop: &AtomicBool) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        let (status, content_type, body, keep_alive) = match read_request(&mut reader) {
            Ok(request) => {
                let (status, content_type, body) = handle(routes, &request);
                (status, content_type, body, request.keep_alive())
            }
            // Closed, timed out, or severed: nobody is waiting for an answer.
            Err(HttpError::Io(_)) => return,
            Err(e) => (400, JSON_TYPE, error_json(&format!("{e}")), false),
        };
        let keep_alive = keep_alive && !stop.load(Ordering::Acquire);
        let written = write_response(&mut writer, status, content_type, &[], &body, keep_alive);
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// Answers a connection past `max_in_flight` with `503` + `Retry-After`
/// on the accept thread — no thread per shed connection. The request the
/// client already sent is drained first, for at most [`SHED_DRAIN`], so
/// the close behind the answer is a FIN rather than a reset that could
/// destroy the answer before the client reads it.
fn shed_connection(mut stream: &TcpStream, retry_after: &str) {
    let deadline = Instant::now() + SHED_DRAIN;
    let _ = stream.set_write_timeout(Some(SHED_DRAIN));
    let _ = read_request(&mut BufReader::new(DeadlineReader { stream, deadline }));
    let _ = write_response(
        &mut stream,
        503,
        JSON_TYPE,
        &[("retry-after", retry_after)],
        &error_json("server saturated; request shed"),
        false,
    );
}

/// Reads from `stream` until `deadline`, then times out: however the
/// client dribbles its bytes, draining it costs at most the deadline.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn error_json(message: &str) -> String {
    Json::object(vec![("error", Json::String(message.to_string()))]).to_string()
}

fn velox_error(e: &VeloxError) -> (u16, String) {
    let status = match e {
        VeloxError::ModelNotFound(_) => 404,
        VeloxError::Model(_)
        | VeloxError::EmptyCandidateSet
        | VeloxError::NonFiniteInput(_)
        | VeloxError::VersionNotFound(_)
        | VeloxError::DurabilityDisabled => 400,
        VeloxError::Unavailable(_) => 503,
        _ => 500,
    };
    (status, error_json(&e.to_string()))
}

/// Extracts the item reference from a request body: either `item_id` or a
/// raw `features` array.
fn parse_item(body: &Json) -> Result<Item, String> {
    if let Some(id) = body.get("item_id").and_then(Json::as_u64) {
        return Ok(Item::Id(id));
    }
    if let Some(features) = body.get("features").and_then(Json::as_array) {
        let values: Option<Vec<f64>> = features.iter().map(Json::as_f64).collect();
        let values = values.ok_or("features must be an array of numbers")?;
        return Ok(Item::Raw(Vector::from_vec(values)));
    }
    Err("body must contain item_id or features".into())
}

fn parse_body(request: &Request) -> Result<Json, String> {
    let text = request.body_str().map_err(|e| e.to_string())?;
    if text.trim().is_empty() {
        return Ok(Json::Object(vec![]));
    }
    Json::parse(text).map_err(|e| e.to_string())
}

/// Stable endpoint label for the per-request latency histogram (bounded
/// cardinality: one bucket per route shape, not per model).
fn endpoint_of(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["events"]) => "events",
        ("GET", ["models"]) => "models",
        ("GET", ["models", _, "stats"]) => "stats",
        ("POST", ["models", _, "alias"]) => "alias",
        ("POST", ["models", _, "predict"]) => "predict",
        ("POST", ["models", _, "topk"]) => "topk",
        ("POST", ["models", _, "observe"]) => "observe",
        ("POST", ["models", _, "retrain"]) => "retrain",
        ("POST", ["models", _, "checkpoint"]) => "checkpoint",
        ("POST", ["models", _, "recover"]) => "recover",
        ("GET", ["cluster", "health"]) => "cluster_health",
        ("POST", ["cluster", "predict"]) => "cluster_predict",
        ("POST", ["cluster", "observe"]) => "cluster_observe",
        ("POST", ["cluster", "rebalance"]) => "cluster_rebalance",
        ("POST", ["cluster", "rebalance", "auto"]) => "cluster_rebalance_auto",
        ("POST", ["cluster", "failover"]) => "cluster_failover",
        ("POST", ["cluster", "migrations", "cancel"]) => "cluster_migration_cancel",
        ("GET", ["trace", _]) => "trace",
        ("GET", ["traces", "slow"]) => "traces_slow",
        _ => "other",
    }
}

/// Times the request, routes the observability endpoints, and falls
/// through to the JSON API dispatch.
fn handle(routes: &Routes, request: &Request) -> (u16, &'static str, String) {
    routes.in_flight.add(1);
    let _guard = InFlightGuard(&routes.in_flight);
    let (server, registry) = (&*routes.deployments, &*routes.registry);
    let (cluster, serving) = (routes.cluster.as_deref(), routes.serving.as_ref());
    let timer = Timer::start();
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let endpoint = endpoint_of(request.method.as_str(), &segments);
    let result = match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => {
            (200, METRICS_TYPE, routes.metrics_cache.get(server, registry, serving))
        }
        ("GET", ["events"]) => (200, JSON_TYPE, events_json(server)),
        (_, ["cluster", ..]) => {
            let (status, body) = dispatch_cluster(cluster, serving, request, &segments);
            (status, JSON_TYPE, body)
        }
        ("GET", ["trace", id]) => {
            let (status, body) = trace_json(cluster, id);
            (status, JSON_TYPE, body)
        }
        ("GET", ["traces", "slow"]) => {
            let (status, body) = slow_traces_json(cluster);
            (status, JSON_TYPE, body)
        }
        _ => {
            let (status, body) = dispatch(server, serving, request);
            (status, JSON_TYPE, body)
        }
    };
    timer.observe(
        &registry.histogram_with("velox_rest_request_latency_ns", &[("endpoint", endpoint)]),
    );
    result
}

/// Merged Prometheus exposition: the REST layer's own metrics plus every
/// deployment's registry tagged `model="<name>"`. Samples are re-sorted so
/// each family appears once with a single `# TYPE` line.
fn metrics_text(
    server: &VeloxServer,
    registry: &Registry,
    serving: Option<&Arc<ServeTier>>,
) -> String {
    let mut metrics = registry.snapshot().metrics;
    let mut names = server.deployment_names();
    names.sort();
    for name in &names {
        if let Ok(velox) = server.deployment(&ModelSchema::named(name.as_str())) {
            for mut m in velox.registry().snapshot().metrics {
                m.labels.insert(0, ("model".to_string(), name.clone()));
                metrics.push(m);
            }
        }
    }
    // The serving tier's registry already labels its series by backend.
    if let Some(tier) = serving {
        metrics.extend(tier.registry().snapshot().metrics);
    }
    metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    RegistrySnapshot { metrics }.render_prometheus(&[])
}

/// All deployments' lifecycle events as JSON, oldest first per model.
fn events_json(server: &VeloxServer) -> String {
    let mut names = server.deployment_names();
    names.sort();
    let mut events = Vec::new();
    for name in &names {
        if let Ok(velox) = server.deployment(&ModelSchema::named(name.as_str())) {
            for ev in velox.registry().recent_events() {
                let fields: Vec<(String, Json)> = ev
                    .kind
                    .fields()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Number(v as f64)))
                    .collect();
                events.push(Json::object(vec![
                    ("model", Json::String(name.clone())),
                    ("seq", Json::Number(ev.seq as f64)),
                    ("at_unix_ms", Json::Number(ev.at_unix_ms as f64)),
                    ("kind", Json::String(ev.kind.name().to_string())),
                    ("fields", Json::Object(fields)),
                ]));
            }
        }
    }
    Json::object(vec![("events", Json::Array(events))]).to_string()
}

/// Maps a [`ServeError`] onto HTTP. Registry-shaped mistakes (duplicate
/// or unknown names, unretained versions) and refused retires are caller
/// errors — `400`, mirroring the `MembershipError` discipline; backend
/// failures keep their own mappings.
fn serve_error(e: &ServeError) -> (u16, String) {
    match e {
        ServeError::Velox(inner) => velox_error(inner),
        ServeError::Transport(inner) => transport_error(inner),
        ServeError::ShuttingDown => (503, error_json(&e.to_string())),
        ServeError::Registry(_)
        | ServeError::RetireServing { .. }
        | ServeError::WrongItemKind { .. }
        | ServeError::Custom(_) => (400, error_json(&e.to_string())),
    }
}

/// Renders a tier-served prediction with the same fidelity fields the
/// unbatched routes answer with, plus the batching provenance.
fn served_predict_json(name: &str, version: u64, served: &velox_serve::ServedPredict) -> Json {
    let mut fields = vec![
        ("score", Json::Number(served.score)),
        ("backend", Json::String(name.to_string())),
        ("backend_version", Json::Number(version as f64)),
        ("batched", Json::Bool(true)),
    ];
    match &served.detail {
        ServeDetail::Plain => {}
        ServeDetail::Velox { cached, bootstrapped, degradation } => {
            fields.push(("cached", Json::Bool(*cached)));
            fields.push(("bootstrapped", Json::Bool(*bootstrapped)));
            fields.push(("degradation", Json::String(degradation.label().to_string())));
        }
        ServeDetail::Cluster { node, routed, cold_start } => {
            fields.push(("node", Json::Number(*node as f64)));
            fields.push(("routed", Json::Bool(*routed)));
            fields.push(("cold_start", Json::Bool(*cold_start)));
        }
    }
    Json::object(fields)
}

/// The `backends` array of `GET /models`: every tier-registered backend
/// with its version lineage and batching-lane statistics.
fn backends_json(tier: &ServeTier) -> Json {
    Json::Array(
        tier.backends()
            .into_iter()
            .map(|b| {
                Json::object(vec![
                    ("name", Json::String(b.name)),
                    ("kind", Json::String(b.kind.to_string())),
                    ("dim", Json::Number(b.dim as f64)),
                    ("serving_version", Json::Number(b.serving_version as f64)),
                    (
                        "versions",
                        Json::Array(b.versions.iter().map(|&v| Json::Number(v as f64)).collect()),
                    ),
                    ("model_version", Json::Number(b.model_version as f64)),
                    (
                        "batch",
                        Json::object(vec![
                            ("requests", Json::Number(b.lane.requests as f64)),
                            ("batches", Json::Number(b.lane.batches as f64)),
                            ("mean_batch", Json::Number(b.lane.mean_batch)),
                            ("batch_target", Json::Number(b.lane.batch_target as f64)),
                            ("queue_depth", Json::Number(b.lane.queue_depth as f64)),
                            ("slo_violations", Json::Number(b.lane.slo_violations as f64)),
                            ("request_p99_ns", Json::Number(b.lane.request_p99_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect(),
    )
}

fn dispatch(
    server: &VeloxServer,
    serving: Option<&Arc<ServeTier>>,
    request: &Request,
) -> (u16, String) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["models"]) => {
            let mut names = server.deployment_names();
            names.sort();
            let mut fields =
                vec![("models", Json::Array(names.into_iter().map(Json::String).collect()))];
            if let Some(tier) = serving {
                fields.push(("backends", backends_json(tier)));
            }
            (200, Json::object(fields).to_string())
        }
        ("POST", ["models", name, "alias"]) => {
            let Some(tier) = serving else {
                return (404, error_json("no serving tier attached"));
            };
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(version) = body.get("version").and_then(Json::as_u64) else {
                return (400, error_json("body must contain version"));
            };
            match tier.flip_alias(name, version) {
                Err(e) => serve_error(&e),
                Ok(previous) => (
                    200,
                    Json::object(vec![
                        ("serving_version", Json::Number(version as f64)),
                        ("previous_version", Json::Number(previous as f64)),
                    ])
                    .to_string(),
                ),
            }
        }
        ("GET", ["models", name, "stats"]) => match server.deployment(&ModelSchema::named(*name)) {
            Err(e) => velox_error(&e),
            Ok(velox) => {
                let s = velox.stats();
                let body = Json::object(vec![
                    ("model_version", Json::Number(s.model_version as f64)),
                    ("retrains", Json::Number(s.retrains as f64)),
                    ("observations", Json::Number(s.observations as f64)),
                    ("online_users", Json::Number(s.online_users as f64)),
                    ("mean_loss", Json::Number(s.mean_loss)),
                    ("prediction_cache_hits", Json::Number(s.prediction_cache.0 as f64)),
                    ("prediction_cache_misses", Json::Number(s.prediction_cache.1 as f64)),
                    ("stale", Json::Bool(s.stale)),
                    (
                        "durability",
                        Json::object(vec![
                            ("enabled", Json::Bool(s.durability.enabled)),
                            ("checkpoints", Json::Number(s.durability.checkpoints as f64)),
                            (
                                "last_checkpoint_seq",
                                Json::Number(s.durability.last_checkpoint_seq as f64),
                            ),
                            ("wal_appends", Json::Number(s.durability.wal_appends as f64)),
                            ("wal_segments", Json::Number(s.durability.wal_segments as f64)),
                            (
                                "recovery_replayed",
                                Json::Number(s.durability.recovery_replayed as f64),
                            ),
                        ]),
                    ),
                ]);
                (200, body.to_string())
            }
        },
        ("POST", ["models", name, "predict"]) => {
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(uid) = body.get("uid").and_then(Json::as_u64) else {
                return (400, error_json("missing uid"));
            };
            let item = match parse_item(&body) {
                Ok(i) => i,
                Err(e) => return (400, error_json(&e)),
            };
            // A tier-registered name serves through the adaptive batching
            // lane; everything else keeps the direct deployment path.
            if let Some(tier) = serving.filter(|t| t.has(name)) {
                let version = tier.snapshot().serving_version(name).unwrap_or(0);
                return match tier.predict(name, uid, &item) {
                    Err(e) => serve_error(&e),
                    Ok(served) => (200, served_predict_json(name, version, &served).to_string()),
                };
            }
            match server.predict(&ModelSchema::named(*name), uid, &item) {
                Err(e) => velox_error(&e),
                Ok(resp) => {
                    let body = Json::object(vec![
                        ("score", Json::Number(resp.score)),
                        ("cached", Json::Bool(resp.cached)),
                        ("bootstrapped", Json::Bool(resp.bootstrapped)),
                        ("degradation", Json::String(resp.degradation.label().to_string())),
                    ]);
                    (200, body.to_string())
                }
            }
        }
        ("POST", ["models", name, "topk"]) => {
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(uid) = body.get("uid").and_then(Json::as_u64) else {
                return (400, error_json("missing uid"));
            };
            let Some(ids) = body.get("item_ids").and_then(Json::as_array) else {
                return (400, error_json("missing item_ids"));
            };
            let items: Option<Vec<Item>> = ids.iter().map(|j| j.as_u64().map(Item::Id)).collect();
            let Some(items) = items else {
                return (400, error_json("item_ids must be non-negative integers"));
            };
            match server.top_k(&ModelSchema::named(*name), uid, &items) {
                Err(e) => velox_error(&e),
                Ok(resp) => {
                    let ranked: Vec<Json> = resp
                        .ranked
                        .iter()
                        .map(|&(idx, score)| {
                            Json::Array(vec![
                                Json::Number(items[idx].id().expect("id items") as f64),
                                Json::Number(score),
                            ])
                        })
                        .collect();
                    let served_item = items[resp.served].id().expect("id items");
                    let body = Json::object(vec![
                        ("ranked", Json::Array(ranked)),
                        ("served_item", Json::Number(served_item as f64)),
                        ("randomized", Json::Bool(resp.randomized)),
                        ("degradation", Json::String(resp.degradation.label().to_string())),
                    ]);
                    (200, body.to_string())
                }
            }
        }
        ("POST", ["models", name, "observe"]) => {
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(uid) = body.get("uid").and_then(Json::as_u64) else {
                return (400, error_json("missing uid"));
            };
            let Some(y) = body.get("y").and_then(Json::as_f64) else {
                return (400, error_json("missing y"));
            };
            let item = match parse_item(&body) {
                Ok(i) => i,
                Err(e) => return (400, error_json(&e)),
            };
            match server.observe(&ModelSchema::named(*name), uid, &item, y) {
                Err(e) => velox_error(&e),
                Ok(outcome) => {
                    let body = Json::object(vec![
                        ("predicted_before", Json::Number(outcome.predicted_before)),
                        ("loss", Json::Number(outcome.loss)),
                        ("trained", Json::Bool(outcome.trained)),
                        ("stale", Json::Bool(outcome.stale)),
                        ("retrained", Json::Bool(outcome.retrained)),
                        ("deferred", Json::Bool(outcome.deferred)),
                    ]);
                    (200, body.to_string())
                }
            }
        }
        ("POST", ["models", name, "retrain"]) => {
            match server.deployment(&ModelSchema::named(*name)) {
                Err(e) => velox_error(&e),
                Ok(velox) => match velox.retrain_offline() {
                    Err(e) => velox_error(&e),
                    Ok(version) => (
                        200,
                        Json::object(vec![("version", Json::Number(version as f64))]).to_string(),
                    ),
                },
            }
        }
        ("POST", ["models", name, "checkpoint"]) => {
            match server.deployment(&ModelSchema::named(*name)) {
                Err(e) => velox_error(&e),
                Ok(velox) => match velox.checkpoint() {
                    Err(e) => velox_error(&e),
                    Ok(report) => (
                        200,
                        Json::object(vec![
                            ("seq", Json::Number(report.seq as f64)),
                            ("wal_offset", Json::Number(report.wal_offset as f64)),
                            (
                                "wal_segments_removed",
                                Json::Number(report.wal_segments_removed as f64),
                            ),
                            ("bytes", Json::Number(report.bytes as f64)),
                        ])
                        .to_string(),
                    ),
                },
            }
        }
        ("POST", ["models", name, "recover"]) => {
            match server.deployment(&ModelSchema::named(*name)) {
                Err(e) => velox_error(&e),
                Ok(velox) => recover_deployment(server, name, &velox),
            }
        }
        (method, ["models", ..]) if method != "GET" && method != "POST" => {
            (405, error_json("method not allowed"))
        }
        _ => (404, error_json(&format!("no route for {} {}", request.method, request.path))),
    }
}

/// Maps a [`TransportError`] onto HTTP: `Unavailable` (no live replica)
/// is the server's `503` vocabulary, `Rejected` is a caller mistake or
/// refused precondition (`400`), everything else is a `500`.
fn transport_error(e: &TransportError) -> (u16, String) {
    let status = match e {
        TransportError::Unavailable => 503,
        TransportError::Rejected(_) => 400,
        TransportError::Failed(_) => 500,
    };
    (status, error_json(&e.to_string()))
}

/// The `/cluster/*` routes: the multi-node serving path (§3) exposed over
/// REST. `predict`/`observe` hit the node owning the user's weights via
/// whatever [`Transport`] backend is attached; `health` reports per-node
/// liveness.
fn dispatch_cluster(
    cluster: Option<&(dyn Transport + Send + Sync)>,
    serving: Option<&Arc<ServeTier>>,
    request: &Request,
    segments: &[&str],
) -> (u16, String) {
    let Some(cluster) = cluster else {
        return (404, error_json("no cluster backend attached"));
    };
    match (request.method.as_str(), segments) {
        ("GET", ["cluster", "health"]) => {
            // Pair the control-plane health (Up/Recovering/Down — what the
            // operator did) with the failure detector's liveness verdict
            // (Alive/Suspect/Dead — what the heartbeats observed).
            let liveness = cluster.liveness();
            let nodes: Vec<Json> = (0..cluster.n_nodes())
                .map(|node| {
                    let mut fields = vec![
                        ("node", Json::Number(node as f64)),
                        ("health", Json::String(cluster.node_health(node).label().to_string())),
                    ];
                    if let Some(l) = liveness.iter().find(|l| l.node == node as u32) {
                        fields.push(("liveness", Json::String(l.state.label().to_string())));
                        fields.push(("misses", Json::Number(l.misses as f64)));
                        fields.push(("last_rtt_us", Json::Number(l.last_rtt_us as f64)));
                        fields.push(("probes", Json::Number(l.probes as f64)));
                        fields.push(("failures", Json::Number(l.failures as f64)));
                    }
                    Json::object(fields)
                })
                .collect();
            let mut top = vec![("nodes", Json::Array(nodes))];
            // Membership plane (epoch-stamped partition map + migration
            // ledger), when the transport exposes one.
            if let Some(view) = cluster.membership() {
                // The ledger keeps everything; the endpoint reports the
                // most recent `MIGRATION_LEDGER_TAIL` entries so health
                // stays O(1) however long the cluster has been churning.
                let skipped = view.migrations.len().saturating_sub(MIGRATION_LEDGER_TAIL);
                let migrations: Vec<Json> = view
                    .migrations
                    .iter()
                    .skip(skipped)
                    .map(|m| {
                        Json::object(vec![
                            ("partition", Json::Number(m.partition as f64)),
                            ("from", Json::Number(m.from as f64)),
                            ("to", Json::Number(m.to as f64)),
                            ("phase", Json::String(m.phase.to_string())),
                            ("outcome", Json::String(m.outcome.to_string())),
                            ("epoch_start", Json::Number(m.epoch_start as f64)),
                            ("epoch_end", Json::Number(m.epoch_end as f64)),
                            ("users_streamed", Json::Number(m.users_streamed as f64)),
                            ("chunks_streamed", Json::Number(m.chunks_streamed as f64)),
                            ("records_replayed", Json::Number(m.records_replayed as f64)),
                        ])
                    })
                    .collect();
                top.push((
                    "membership",
                    Json::object(vec![
                        ("epoch", Json::Number(view.epoch as f64)),
                        (
                            "members",
                            Json::Array(
                                view.members.iter().map(|&m| Json::Number(m as f64)).collect(),
                            ),
                        ),
                        ("n_partitions", Json::Number(view.n_partitions as f64)),
                        ("replication", Json::Number(view.replication as f64)),
                        ("wrong_epoch", Json::Number(view.wrong_epoch as f64)),
                        ("map_refreshes", Json::Number(view.map_refreshes as f64)),
                        ("auto_rebalance", Json::Bool(view.auto_rebalance)),
                        ("migrations_total", Json::Number(view.migrations.len() as f64)),
                        ("migrations", Json::Array(migrations)),
                    ]),
                ));
            }
            (200, Json::object(top).to_string())
        }
        ("POST", ["cluster", "predict"]) => {
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let (Some(uid), Some(item_id)) = (
                body.get("uid").and_then(Json::as_u64),
                body.get("item_id").and_then(Json::as_u64),
            ) else {
                return (400, error_json("body must contain uid and item_id"));
            };
            // When the serving tier fronts the cluster (a backend under
            // the conventional "cluster" name), predicts coalesce through
            // its batching lane; the lane's batched pass emits the
            // batch/backend spans instead of a per-request REST root.
            if let Some(tier) = serving.filter(|t| t.has(CLUSTER_BACKEND)) {
                return match tier.predict(CLUSTER_BACKEND, uid, &Item::Id(item_id)) {
                    Err(e) => serve_error(&e),
                    Ok(served) => {
                        let version = tier.snapshot().serving_version(CLUSTER_BACKEND).unwrap_or(0);
                        (200, served_predict_json(CLUSTER_BACKEND, version, &served).to_string())
                    }
                };
            }
            // REST ingress mints the trace root; the transport's spans
            // (route, RPC, node work) hang off it.
            let tracer = cluster.tracer();
            let root = tracer.ingress(SpanKind::RestRequest, FRONT_NODE);
            let ctx = root.as_ref().map(|r| r.ctx());
            let result = cluster.predict_traced(uid, item_id, ctx.as_ref());
            if let Some(r) = root {
                tracer.end_root(r);
            }
            match result {
                Err(e) => transport_error(&e),
                Ok(p) => (
                    200,
                    Json::object(vec![
                        ("score", Json::Number(p.score)),
                        ("node", Json::Number(p.node as f64)),
                        ("routed", Json::Bool(p.routed)),
                        ("cold_start", Json::Bool(p.cold_start)),
                        ("trace_id", trace_id_json(p.trace_id)),
                    ])
                    .to_string(),
                ),
            }
        }
        ("POST", ["cluster", "observe"]) => {
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let (Some(uid), Some(item_id), Some(y)) = (
                body.get("uid").and_then(Json::as_u64),
                body.get("item_id").and_then(Json::as_u64),
                body.get("y").and_then(Json::as_f64),
            ) else {
                return (400, error_json("body must contain uid, item_id, and y"));
            };
            // JSON has no ±∞, but `1e999` parses to one.
            if !y.is_finite() {
                return (400, error_json("y must be finite"));
            }
            let tracer = cluster.tracer();
            let root = tracer.ingress(SpanKind::RestRequest, FRONT_NODE);
            let ctx = root.as_ref().map(|r| r.ctx());
            let result = cluster.observe_traced(uid, item_id, y, ctx.as_ref());
            if let Some(r) = root {
                tracer.end_root(r);
            }
            match result {
                Err(e) => transport_error(&e),
                Ok(ack) => (
                    200,
                    Json::object(vec![
                        ("node", Json::Number(ack.node as f64)),
                        ("ts", Json::Number(ack.ts as f64)),
                        ("shipped_to", Json::Number(ack.shipped_to as f64)),
                        ("trace_id", trace_id_json(ack.trace_id)),
                    ])
                    .to_string(),
                ),
            }
        }
        ("POST", ["cluster", "rebalance"]) => {
            // Planned handoff toward an already-joined member: migrates
            // the partitions the join plan picks, one at a time.
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(node) = body.get("node").and_then(Json::as_u64) else {
                return (400, error_json("body must contain node"));
            };
            match cluster.rebalance_join_node(node as usize) {
                Err(e) => transport_error(&e),
                Ok(moved) => (
                    200,
                    Json::object(vec![(
                        "moved",
                        Json::Array(moved.into_iter().map(|p| Json::Number(p as f64)).collect()),
                    )])
                    .to_string(),
                ),
            }
        }
        ("POST", ["cluster", "rebalance", "auto"]) => {
            // The kill switch: {"enabled": bool}. Re-enabling resets the
            // retry-cap ledger so the automatic path gets a fresh budget.
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(enabled) = body.get("enabled").and_then(Json::as_bool) else {
                return (400, error_json("body must contain enabled (boolean)"));
            };
            cluster.set_auto_rebalance(enabled);
            (200, Json::object(vec![("auto_rebalance", Json::Bool(enabled))]).to_string())
        }
        ("POST", ["cluster", "failover"]) => {
            // Operator-triggered fail-over of a down member; refuses live
            // nodes and unknown ids with a 4xx.
            let body = match parse_body(request) {
                Ok(b) => b,
                Err(e) => return (400, error_json(&e)),
            };
            let Some(node) = body.get("node").and_then(Json::as_u64) else {
                return (400, error_json("body must contain node"));
            };
            match cluster.fail_over_node(node as usize) {
                Err(e) => transport_error(&e),
                Ok(backfilled) => (
                    200,
                    Json::object(vec![("backfilled", Json::Number(backfilled as f64))]).to_string(),
                ),
            }
        }
        ("POST", ["cluster", "migrations", "cancel"]) => {
            // Operator abort: the in-flight (or next) migration rolls back
            // with `operator cancel` at its next chunk boundary.
            let was_running = cluster.cancel_migration();
            (200, Json::object(vec![("was_in_flight", Json::Bool(was_running))]).to_string())
        }
        _ => (404, error_json(&format!("no route for {} {}", request.method, request.path))),
    }
}

/// Trace ids travel through JSON as zero-padded hex strings: an f64 JSON
/// number can't hold all 64 bits.
fn trace_id_json(t: Option<u64>) -> Json {
    t.map(|t| Json::String(format!("{t:016x}"))).unwrap_or(Json::Null)
}

fn node_json(node: u32) -> Json {
    if node == FRONT_NODE {
        Json::String("front".to_string())
    } else {
        Json::Number(node as f64)
    }
}

fn span_json(s: &SpanRecord) -> Vec<(&'static str, Json)> {
    vec![
        ("span_id", Json::String(format!("{:016x}", s.span_id))),
        (
            "parent_span_id",
            if s.parent_span_id == 0 {
                Json::Null
            } else {
                Json::String(format!("{:016x}", s.parent_span_id))
            },
        ),
        ("kind", Json::String(s.kind.as_str().to_string())),
        ("node", node_json(s.node)),
        (
            "status",
            Json::String(
                if s.status == velox_obs::SpanStatus::Ok { "ok" } else { "error" }.to_string(),
            ),
        ),
        ("start_ns", Json::Number(s.start_ns as f64)),
        ("duration_ns", Json::Number(s.duration_ns() as f64)),
    ]
}

fn tree_json(node: &TraceNode) -> Json {
    let mut fields = span_json(&node.span);
    fields.push(("children", Json::Array(node.children.iter().map(tree_json).collect())));
    Json::object(fields)
}

/// `GET /trace/<id>`: the reassembled span tree of one sampled request.
/// `<id>` is the hex trace id returned by `/cluster/*` responses and
/// `/traces/slow` (and attached to `/metrics` histogram exemplars).
fn trace_json(cluster: Option<&(dyn Transport + Send + Sync)>, id: &str) -> (u16, String) {
    let Some(cluster) = cluster else {
        return (404, error_json("no cluster backend attached"));
    };
    let Ok(trace_id) = u64::from_str_radix(id, 16) else {
        return (400, error_json("trace id must be hex"));
    };
    let tracer = cluster.tracer();
    if !tracer.enabled() {
        return (404, error_json("tracing is disabled on this backend"));
    }
    let spans = tracer.collect(trace_id);
    if spans.is_empty() {
        return (404, error_json("trace not found (unsampled, or aged out of the span rings)"));
    }
    let tree = build_tree(&spans);
    let body = Json::object(vec![
        ("trace_id", Json::String(format!("{trace_id:016x}"))),
        ("span_count", Json::Number(spans.len() as f64)),
        ("spans", Json::Array(spans.iter().map(|s| Json::object(span_json(s))).collect())),
        ("tree", Json::Array(tree.iter().map(tree_json).collect())),
    ]);
    (200, body.to_string())
}

/// `GET /traces/slow`: the kept-trace index, newest first — tail-latency
/// offenders (and head samples), each linking to `GET /trace/<id>`.
fn slow_traces_json(cluster: Option<&(dyn Transport + Send + Sync)>) -> (u16, String) {
    let Some(cluster) = cluster else {
        return (404, error_json("no cluster backend attached"));
    };
    let tracer = cluster.tracer();
    if !tracer.enabled() {
        return (404, error_json("tracing is disabled on this backend"));
    }
    let traces: Vec<Json> = tracer
        .kept()
        .into_iter()
        .map(|k| {
            Json::object(vec![
                ("trace_id", Json::String(format!("{:016x}", k.trace_id))),
                ("root", Json::String(k.root_kind.as_str().to_string())),
                ("duration_ns", Json::Number(k.duration_ns as f64)),
                ("end_ns", Json::Number(k.end_ns as f64)),
                (
                    "reason",
                    Json::String(
                        if k.reason == KeepReason::Slow { "slow" } else { "head_sampled" }
                            .to_string(),
                    ),
                ),
            ])
        })
        .collect();
    (200, Json::object(vec![("traces", Json::Array(traces))]).to_string())
}

/// Recovery drill: rebuilds `name`'s deployment strictly from its durable
/// state. The live instance releases the WAL and checkpoint directory, a
/// fresh instance recovers from them (checkpoint restore + WAL replay, the
/// exact path a crashed process takes on restart), and the recovered
/// instance replaces the old one atomically in the deployment table.
fn recover_deployment(server: &VeloxServer, name: &str, velox: &Arc<Velox>) -> (u16, String) {
    if velox.config().durability.is_none() {
        return velox_error(&VeloxError::DurabilityDisabled);
    }
    let model = velox.current_model();
    let config = velox.config().clone();
    // Release the file handles so the recovering instance can take over.
    velox.close_durability();
    match Velox::deploy_durable(move |_snapshot| Ok(model), HashMap::new(), config) {
        Err(e) => velox_error(&e),
        Ok((recovered, report)) => {
            server.install(name, Arc::new(recovered));
            let body = Json::object(vec![
                (
                    "checkpoint_seq",
                    report.checkpoint_seq.map(|s| Json::Number(s as f64)).unwrap_or(Json::Null),
                ),
                ("checkpoint_wal_offset", Json::Number(report.checkpoint_wal_offset as f64)),
                ("replayed", Json::Number(report.replayed as f64)),
                ("apply_failures", Json::Number(report.apply_failures as f64)),
                ("torn", Json::Bool(report.torn)),
                ("wal_quarantined", Json::Number(report.wal_quarantined as f64)),
                ("duration_ns", Json::Number(report.duration_ns as f64)),
            ]);
            (200, body.to_string())
        }
    }
}
