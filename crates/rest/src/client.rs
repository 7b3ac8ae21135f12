//! A typed Rust client for the Velox REST API.
//!
//! The application tier in the paper consumes Velox over its RESTful
//! interface; this client gives Rust applications a typed façade over that
//! wire protocol — same `std::net` + in-crate JSON stack as the server, no
//! HTTP dependency. The client keeps one HTTP/1.1 keep-alive connection
//! and reuses it call after call; responses are framed by
//! `Content-Length`, and a response that says `connection: close` — or a
//! connection that errors, or that the server has closed while it sat
//! idle — is dropped and the next call dials afresh. Nothing is re-sent on
//! a new connection behind the caller's back: `/cluster/observe` is not
//! idempotent, so redialing is the retry loop's decision alone.
//!
//! The client is resilient by default: transient failures (socket errors,
//! 5xx, 429 shed responses) are retried with exponential backoff and
//! jitter, and a per-endpoint circuit breaker stops hammering an endpoint
//! that keeps failing, re-probing it after a cooldown.

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::{read_response, HttpError};
use crate::json::Json;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The response was not valid HTTP + JSON.
    Protocol(String),
    /// The server answered with an error status; the JSON `error` message
    /// is included.
    Server {
        /// HTTP status code.
        status: u16,
        /// The server's error message.
        message: String,
        /// Parsed `Retry-After` header (delta-seconds form), when the
        /// server sent one — load-shedding 503s do. The retry loop honors
        /// it in place of its own exponential backoff.
        retry_after: Option<Duration>,
    },
    /// The circuit breaker for this endpoint is open; the request was not
    /// sent. Retry after the breaker cooldown.
    CircuitOpen {
        /// The endpoint path whose breaker is open.
        endpoint: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { status, message, .. } => {
                write!(f, "server error {status}: {message}")
            }
            ClientError::CircuitOpen { endpoint } => {
                write!(f, "circuit breaker open for {endpoint}; request not sent")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Io(e) => ClientError::Io(e),
            HttpError::Malformed(m) => ClientError::Protocol(m),
        }
    }
}

/// Retry tuning for transient failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]` so synchronized clients don't
    /// retry in lockstep.
    pub jitter: f64,
    /// Seed for the jitter RNG (deterministic backoff schedules in tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter: 0.2,
            seed: 0xC1_1E_47,
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive transient failures on one endpoint that trip the
    /// breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects calls before allowing a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, cooldown: Duration::from_secs(5) }
    }
}

/// Circuit-breaker state for one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rejected without touching the network.
    Open,
    /// Cooldown elapsed: the next request is a probe; its outcome closes
    /// or re-opens the breaker.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerEntry {
    consecutive_failures: u32,
    open: bool,
    opened_at: Instant,
}

/// Mutable resilience state behind one lock: the jitter RNG plus the
/// per-endpoint breakers.
#[derive(Debug)]
struct Resilience {
    rng_state: u64,
    breakers: HashMap<String, BreakerEntry>,
}

/// splitmix64: small, seedable, and good enough for jitter. A copy of
/// `velox_data::rng::splitmix64`: velox-rest depends on velox-data only for
/// its tests, and a normal dependency would change the dependency graph the
/// benchmark's lock file pins.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a kept connection can carry the next request: nothing is left
/// over from the last response, and the server has not closed it since
/// (idle timeout, shutdown) — a peek that would block means it is open.
/// Checked before anything is written, so a stale connection costs a
/// redial, never a lost or repeated request.
fn reusable(conn: &BufReader<TcpStream>) -> bool {
    let stream = conn.get_ref();
    if !conn.buffer().is_empty() || stream.set_nonblocking(true).is_err() {
        return false;
    }
    let open = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && open
}

/// A point-prediction result.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPrediction {
    /// Predicted score.
    pub score: f64,
    /// Served from the prediction cache.
    pub cached: bool,
    /// Served from the new-user bootstrap.
    pub bootstrapped: bool,
    /// The server's degradation level for this request (`"full"`,
    /// `"replica"`, `"stale_cache"`, or `"bootstrap"`).
    pub degradation: String,
}

/// A topK result.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientTopK {
    /// `(item id, score)` ranked descending.
    pub ranked: Vec<(u64, f64)>,
    /// The item the system chose to serve.
    pub served_item: u64,
    /// Whether the serve was validation-randomized.
    pub randomized: bool,
}

/// An observe acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientObserve {
    /// Prediction before the update.
    pub predicted_before: f64,
    /// Loss of that prediction.
    pub loss: f64,
    /// Whether the observation was trained on.
    pub trained: bool,
    /// Whether the observation was buffered for redo because its user
    /// partition had no live replica (trained is `false` until a recovered
    /// node drains the queue).
    pub deferred: bool,
}

/// A cluster-route prediction (`POST /cluster/predict`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientClusterPredict {
    /// Predicted score `wᵤ·x`.
    pub score: f64,
    /// Node that computed the score.
    pub node: usize,
    /// Served by a node other than the user's home partition.
    pub routed: bool,
    /// No weights existed for the user; the score is the zero prior.
    pub cold_start: bool,
    /// Hex trace id when the request was sampled (`GET /trace/<id>`).
    pub trace_id: Option<String>,
}

/// A cluster-route observe acknowledgement (`POST /cluster/observe`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientClusterObserve {
    /// Node that applied the update.
    pub node: usize,
    /// Logical timestamp the owner assigned.
    pub ts: u64,
    /// Replicas the record was shipped to before the ack.
    pub shipped_to: usize,
    /// Hex trace id when the request was sampled (`GET /trace/<id>`).
    pub trace_id: Option<String>,
}

/// A typed client bound to one Velox REST endpoint and one model name.
pub struct VeloxClient {
    addr: SocketAddr,
    model: String,
    timeout: Duration,
    retry: RetryPolicy,
    breaker: BreakerConfig,
    resilience: Mutex<Resilience>,
    /// The kept-alive connection, idle between calls. A call takes it out
    /// for its duration, so concurrent calls on one client dial their own
    /// and only one is kept afterwards.
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl VeloxClient {
    /// Creates a client for `model` at `addr`.
    ///
    /// # Panics
    /// Panics if `model` contains characters that cannot appear in a URL
    /// path segment (the client does not implement percent-encoding).
    pub fn new(addr: SocketAddr, model: impl Into<String>) -> Self {
        let model = model.into();
        assert!(
            !model.is_empty()
                && model
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.'),
            "model name must be URL-path-safe ([A-Za-z0-9._-])"
        );
        let retry = RetryPolicy::default();
        let rng_state = retry.seed;
        VeloxClient {
            addr,
            model,
            timeout: Duration::from_secs(10),
            retry,
            breaker: BreakerConfig::default(),
            resilience: Mutex::new(Resilience { rng_state, breakers: HashMap::new() }),
            conn: Mutex::new(None),
        }
    }

    /// Overrides the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.resilience.get_mut().unwrap().rng_state = retry.seed;
        self.retry = retry;
        self
    }

    /// Overrides the circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// The effective breaker state for an endpoint path (for example
    /// `/models/songs/predict`). Endpoints never seen are `Closed`; an
    /// open breaker whose cooldown has elapsed reports `HalfOpen`.
    pub fn breaker_state(&self, path: &str) -> BreakerState {
        let resilience = self.resilience.lock().unwrap();
        match resilience.breakers.get(path) {
            None => BreakerState::Closed,
            Some(entry) if !entry.open => BreakerState::Closed,
            Some(entry) if entry.opened_at.elapsed() >= self.breaker.cooldown => {
                BreakerState::HalfOpen
            }
            Some(_) => BreakerState::Open,
        }
    }

    /// Breaker admission gate: rejects while open, lets a probe through
    /// once the cooldown has elapsed.
    fn admit(&self, path: &str) -> Result<(), ClientError> {
        let resilience = self.resilience.lock().unwrap();
        if let Some(entry) = resilience.breakers.get(path) {
            if entry.open && entry.opened_at.elapsed() < self.breaker.cooldown {
                return Err(ClientError::CircuitOpen { endpoint: path.to_string() });
            }
        }
        Ok(())
    }

    fn record_success(&self, path: &str) {
        let mut resilience = self.resilience.lock().unwrap();
        if let Some(entry) = resilience.breakers.get_mut(path) {
            entry.consecutive_failures = 0;
            entry.open = false;
        }
    }

    fn record_failure(&self, path: &str) {
        let mut resilience = self.resilience.lock().unwrap();
        let entry = resilience.breakers.entry(path.to_string()).or_insert(BreakerEntry {
            consecutive_failures: 0,
            open: false,
            opened_at: Instant::now(),
        });
        if entry.open {
            // A failed half-open probe: re-open and restart the cooldown.
            entry.opened_at = Instant::now();
            return;
        }
        entry.consecutive_failures += 1;
        if entry.consecutive_failures >= self.breaker.failure_threshold {
            entry.open = true;
            entry.opened_at = Instant::now();
        }
    }

    /// Whether an error is worth retrying: socket failures, garbled
    /// responses, server-side 5xx, and 429/503-style shedding. Other 4xx
    /// are the caller's bug and retrying cannot help.
    fn retryable(e: &ClientError) -> bool {
        match e {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { status, .. } => *status >= 500 || *status == 429,
            ClientError::CircuitOpen { .. } => false,
        }
    }

    /// Exponential backoff with jitter for retry `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.retry.base_backoff.as_secs_f64() * 2f64.powi(attempt as i32 - 1);
        let capped = exp.min(self.retry.max_backoff.as_secs_f64());
        let unit = {
            let mut resilience = self.resilience.lock().unwrap();
            (splitmix64(&mut resilience.rng_state) >> 11) as f64 / (1u64 << 53) as f64
        };
        let factor = 1.0 + self.retry.jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }

    /// One call with retries and breaker accounting. The breaker is
    /// checked once on entry — a call already admitted keeps its full
    /// retry budget even if its own failures trip the breaker; later
    /// calls are the ones short-circuited.
    fn call(&self, method: &str, path: &str, body: &str) -> Result<Json, ClientError> {
        self.admit(path)?;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.call_once(method, path, body) {
                Ok(json) => {
                    self.record_success(path);
                    return Ok(json);
                }
                Err(e) if Self::retryable(&e) => {
                    self.record_failure(path);
                    if attempt >= self.retry.max_attempts.max(1) {
                        return Err(e);
                    }
                    // A server that said how long to back off (Retry-After
                    // on a shed 503) knows better than our guess; fall back
                    // to jittered exponential backoff otherwise.
                    let wait = match &e {
                        ClientError::Server { retry_after: Some(wait), .. } => *wait,
                        _ => self.backoff(attempt),
                    };
                    std::thread::sleep(wait);
                }
                Err(e) => {
                    // The server processed the request and rejected it at
                    // the application level: the endpoint is healthy.
                    self.record_success(path);
                    return Err(e);
                }
            }
        }
    }

    fn dial(&self) -> Result<BufReader<TcpStream>, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// One request on the kept connection (or a fresh one). Any error
    /// drops the connection; only a fully read, reusable response puts it
    /// back.
    fn call_once(&self, method: &str, path: &str, body: &str) -> Result<Json, ClientError> {
        let kept = self.conn.lock().unwrap().take().filter(reusable);
        let mut conn = match kept {
            Some(conn) => conn,
            None => self.dial()?,
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        conn.get_mut().write_all(request.as_bytes())?;
        let response = read_response(&mut conn)?;
        if response.reusable {
            self.conn.lock().unwrap().get_or_insert(conn);
        }
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 body".into()))?;
        let json =
            Json::parse(text).map_err(|e| ClientError::Protocol(format!("bad JSON body: {e}")))?;
        if response.status != 200 {
            let message =
                json.get("error").and_then(Json::as_str).unwrap_or("unknown error").to_string();
            // Delta-seconds form only — this workspace's servers never send
            // an HTTP-date.
            let retry_after = response
                .header("retry-after")
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_secs);
            return Err(ClientError::Server { status: response.status, message, retry_after });
        }
        Ok(json)
    }

    /// `predict(uid, item)` over the wire.
    pub fn predict(&self, uid: u64, item_id: u64) -> Result<ClientPrediction, ClientError> {
        let body = Json::object(vec![
            ("uid", Json::Number(uid as f64)),
            ("item_id", Json::Number(item_id as f64)),
        ]);
        let resp =
            self.call("POST", &format!("/models/{}/predict", self.model), &body.to_string())?;
        Ok(ClientPrediction {
            score: resp.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
            cached: resp.get("cached").and_then(Json::as_bool).unwrap_or(false),
            bootstrapped: resp.get("bootstrapped").and_then(Json::as_bool).unwrap_or(false),
            degradation: resp
                .get("degradation")
                .and_then(Json::as_str)
                .unwrap_or("full")
                .to_string(),
        })
    }

    /// `topK(uid, items)` over the wire.
    pub fn top_k(&self, uid: u64, item_ids: &[u64]) -> Result<ClientTopK, ClientError> {
        let body = Json::object(vec![
            ("uid", Json::Number(uid as f64)),
            ("item_ids", Json::Array(item_ids.iter().map(|&i| Json::Number(i as f64)).collect())),
        ]);
        let resp = self.call("POST", &format!("/models/{}/topk", self.model), &body.to_string())?;
        let ranked = resp
            .get("ranked")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing ranked".into()))?
            .iter()
            .filter_map(|pair| {
                let pair = pair.as_array()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_f64()?))
            })
            .collect();
        Ok(ClientTopK {
            ranked,
            served_item: resp
                .get("served_item")
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol("missing served_item".into()))?,
            randomized: resp.get("randomized").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// `observe(uid, item, y)` over the wire.
    pub fn observe(&self, uid: u64, item_id: u64, y: f64) -> Result<ClientObserve, ClientError> {
        let body = Json::object(vec![
            ("uid", Json::Number(uid as f64)),
            ("item_id", Json::Number(item_id as f64)),
            ("y", Json::Number(y)),
        ]);
        let resp =
            self.call("POST", &format!("/models/{}/observe", self.model), &body.to_string())?;
        Ok(ClientObserve {
            predicted_before: resp
                .get("predicted_before")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            loss: resp.get("loss").and_then(Json::as_f64).unwrap_or(f64::NAN),
            trained: resp.get("trained").and_then(Json::as_bool).unwrap_or(false),
            deferred: resp.get("deferred").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Triggers an offline retrain; returns the new model version.
    pub fn retrain(&self) -> Result<u64, ClientError> {
        let resp = self.call("POST", &format!("/models/{}/retrain", self.model), "")?;
        resp.get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing version".into()))
    }

    /// Fetches the model's stats as raw JSON.
    pub fn stats(&self) -> Result<Json, ClientError> {
        self.call("GET", &format!("/models/{}/stats", self.model), "")
    }

    /// Takes a durable checkpoint; returns its sequence number.
    pub fn checkpoint(&self) -> Result<u64, ClientError> {
        let resp = self.call("POST", &format!("/models/{}/checkpoint", self.model), "")?;
        resp.get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing seq".into()))
    }

    /// Runs a recovery drill (rebuild from durable state); returns the
    /// recovery report as raw JSON.
    pub fn recover(&self) -> Result<Json, ClientError> {
        self.call("POST", &format!("/models/{}/recover", self.model), "")
    }

    /// `POST /cluster/predict` — scores over the attached cluster backend
    /// (404 unless the server was built with `RestServer::with_cluster`).
    pub fn cluster_predict(
        &self,
        uid: u64,
        item_id: u64,
    ) -> Result<ClientClusterPredict, ClientError> {
        let body = Json::object(vec![
            ("uid", Json::Number(uid as f64)),
            ("item_id", Json::Number(item_id as f64)),
        ]);
        let resp = self.call("POST", "/cluster/predict", &body.to_string())?;
        Ok(ClientClusterPredict {
            score: resp.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
            node: resp.get("node").and_then(Json::as_u64).unwrap_or(0) as usize,
            routed: resp.get("routed").and_then(Json::as_bool).unwrap_or(false),
            cold_start: resp.get("cold_start").and_then(Json::as_bool).unwrap_or(false),
            trace_id: resp.get("trace_id").and_then(Json::as_str).map(String::from),
        })
    }

    /// `POST /cluster/observe` — applies one online observation at the
    /// owning node of the attached cluster backend.
    pub fn cluster_observe(
        &self,
        uid: u64,
        item_id: u64,
        y: f64,
    ) -> Result<ClientClusterObserve, ClientError> {
        let body = Json::object(vec![
            ("uid", Json::Number(uid as f64)),
            ("item_id", Json::Number(item_id as f64)),
            ("y", Json::Number(y)),
        ]);
        let resp = self.call("POST", "/cluster/observe", &body.to_string())?;
        Ok(ClientClusterObserve {
            node: resp.get("node").and_then(Json::as_u64).unwrap_or(0) as usize,
            ts: resp.get("ts").and_then(Json::as_u64).unwrap_or(0),
            shipped_to: resp.get("shipped_to").and_then(Json::as_u64).unwrap_or(0) as usize,
            trace_id: resp.get("trace_id").and_then(Json::as_str).map(String::from),
        })
    }

    /// `GET /trace/<id>` — the reassembled span tree of one sampled
    /// request, as raw JSON (`spans` flat, `tree` nested).
    pub fn trace(&self, trace_id: &str) -> Result<Json, ClientError> {
        self.call("GET", &format!("/trace/{trace_id}"), "")
    }

    /// `GET /traces/slow` — the kept-trace index (tail-latency offenders
    /// and head samples, newest first), as raw JSON.
    pub fn slow_traces(&self) -> Result<Json, ClientError> {
        self.call("GET", "/traces/slow", "")
    }

    /// `GET /cluster/health` — per-node health labels, indexed by node id.
    pub fn cluster_health(&self) -> Result<Vec<String>, ClientError> {
        let resp = self.call("GET", "/cluster/health", "")?;
        Ok(resp
            .get("nodes")
            .and_then(Json::as_array)
            .map(|nodes| {
                nodes
                    .iter()
                    .filter_map(|n| n.get("health").and_then(Json::as_str).map(String::from))
                    .collect()
            })
            .unwrap_or_default())
    }

    /// `GET /cluster/health` — the full per-node records, including the
    /// failure detector's `liveness`/`misses`/`last_rtt_us` fields, as
    /// raw JSON.
    pub fn cluster_health_full(&self) -> Result<Json, ClientError> {
        self.call("GET", "/cluster/health", "")
    }

    /// `POST /cluster/rebalance` — planned partition handoff toward an
    /// already-joined member. Returns the moved partition ids; bad node
    /// ids are a typed 4xx ([`ClientError::Server`]).
    pub fn cluster_rebalance(&self, node: usize) -> Result<Vec<u64>, ClientError> {
        let body = Json::object(vec![("node", Json::Number(node as f64))]).to_string();
        let resp = self.call("POST", "/cluster/rebalance", &body)?;
        Ok(resp
            .get("moved")
            .and_then(Json::as_array)
            .map(|ps| ps.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default())
    }

    /// `POST /cluster/rebalance/auto` — flips the auto-rebalance kill
    /// switch (re-enabling also resets the retry-cap budget).
    pub fn cluster_set_auto_rebalance(&self, enabled: bool) -> Result<bool, ClientError> {
        let body = Json::object(vec![("enabled", Json::Bool(enabled))]).to_string();
        let resp = self.call("POST", "/cluster/rebalance/auto", &body)?;
        Ok(resp.get("auto_rebalance").and_then(Json::as_bool).unwrap_or(enabled))
    }

    /// `POST /cluster/failover` — operator-triggered fail-over of a down
    /// member. Unknown, non-member, or still-live nodes are a 4xx.
    pub fn cluster_failover(&self, node: usize) -> Result<u64, ClientError> {
        let body = Json::object(vec![("node", Json::Number(node as f64))]).to_string();
        let resp = self.call("POST", "/cluster/failover", &body)?;
        Ok(resp.get("backfilled").and_then(Json::as_u64).unwrap_or(0))
    }

    /// `POST /cluster/migrations/cancel` — aborts the in-flight (or next)
    /// migration with `operator cancel` at its next chunk boundary.
    /// Returns whether a migration was running when the cancel landed.
    pub fn cluster_cancel_migration(&self) -> Result<bool, ClientError> {
        let resp = self.call("POST", "/cluster/migrations/cancel", "")?;
        Ok(resp.get("was_in_flight").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Lists all deployed model names on the server.
    pub fn list_models(&self) -> Result<Vec<String>, ClientError> {
        let resp = self.call("GET", "/models", "")?;
        Ok(resp
            .get("models")
            .and_then(Json::as_array)
            .map(|models| models.iter().filter_map(|m| m.as_str().map(String::from)).collect())
            .unwrap_or_default())
    }

    /// Lists the serving tier's registered backends (the `backends` array
    /// of `GET /models`). Empty when no tier is attached.
    pub fn list_backends(&self) -> Result<Vec<ClientBackend>, ClientError> {
        let resp = self.call("GET", "/models", "")?;
        Ok(resp
            .get("backends")
            .and_then(Json::as_array)
            .map(|backends| {
                backends
                    .iter()
                    .filter_map(|b| {
                        let batch = b.get("batch")?;
                        Some(ClientBackend {
                            name: b.get("name")?.as_str()?.to_string(),
                            kind: b.get("kind")?.as_str()?.to_string(),
                            serving_version: b.get("serving_version")?.as_u64()?,
                            versions: b
                                .get("versions")?
                                .as_array()?
                                .iter()
                                .filter_map(Json::as_u64)
                                .collect(),
                            requests: batch.get("requests").and_then(Json::as_u64).unwrap_or(0),
                            batches: batch.get("batches").and_then(Json::as_u64).unwrap_or(0),
                            mean_batch: batch
                                .get("mean_batch")
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0),
                            slo_violations: batch
                                .get("slo_violations")
                                .and_then(Json::as_u64)
                                .unwrap_or(0),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default())
    }

    /// `POST /models/<model>/alias` — atomically flips the configured
    /// model's serving alias to `version`. Returns the previously serving
    /// version.
    pub fn flip_alias(&self, version: u64) -> Result<u64, ClientError> {
        let body = Json::object(vec![("version", Json::Number(version as f64))]);
        let resp =
            self.call("POST", &format!("/models/{}/alias", self.model), &body.to_string())?;
        resp.get("previous_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing previous_version".into()))
    }
}

/// One serving-tier backend as listed by `GET /models`.
#[derive(Debug, Clone)]
pub struct ClientBackend {
    /// Registered backend name.
    pub name: String,
    /// Backend flavor (`"velox"`, `"cluster"`, `"custom"`).
    pub kind: String,
    /// Version the serving alias points at.
    pub serving_version: u64,
    /// All retained versions, ascending.
    pub versions: Vec<u64>,
    /// Requests served through the batching lane.
    pub requests: u64,
    /// Batched passes executed.
    pub batches: u64,
    /// Mean served batch size.
    pub mean_batch: f64,
    /// Requests that exceeded the lane's latency SLO.
    pub slo_violations: u64,
}
