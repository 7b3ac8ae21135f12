//! RPC client: a kept connection, deadlines, budgeted reconnect/retry.
//!
//! A [`NetClient`] keeps one persistent connection to one node. Calls
//! take it (dialing lazily on first use, or when another call holds it),
//! set the socket's read/write timeouts from the remaining budget, and
//! run one frame round trip. Failures are classified — a
//! refused dial is not a blown deadline — and retried under a budgeted
//! exponential-backoff policy for as long as the caller's deadline has
//! room, with an explicit [`RetryMode`] so non-idempotent requests are
//! never replayed past the point where they may have been applied.
//!
//! The client is also the chaos injection point for the CHAOS-NET
//! adversary: when a [`ChaosLink`] is attached, every attempt asks the
//! shared [`LinkChaos`] engine for a verdict and perturbs the real
//! socket accordingly (drop, delay, duplicate, corrupt, reset,
//! directional partition) — so fault handling is exercised against the
//! same code that serves production traffic, not a mock.

use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use velox_cluster::netfault::{LinkChaos, LinkVerdict};
use velox_cluster::retry::RetryPolicy;
use velox_data::VeloxRng;
use velox_obs::{Counter, Registry, TraceContext};

use crate::frame::{encode_frame_ext, read_frame, write_frame_ext, FrameError};
use crate::rpc::{ErrorCode, Request, Response};

/// Timeout for establishing a new connection.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Seed for backoff jitter (deterministic per client).
const BACKOFF_SEED: u64 = 0xBACC_0FF5;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Default per-request deadline (round trip, including all retries).
    pub request_timeout: Duration,
    /// Cap on one attempt's round trip. `None` lets a single attempt use
    /// the whole remaining deadline (no intra-call retry after a slow
    /// attempt); setting it below `request_timeout` is what gives retries
    /// room to run.
    pub per_try_timeout: Option<Duration>,
    /// Attempt budget and backoff shape shared with the cluster layer.
    pub retry: RetryPolicy,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            request_timeout: Duration::from_secs(2),
            per_try_timeout: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why an RPC failed at the transport layer. The classes are the
/// failure-detector's vocabulary: a [`NetError::ConnectFailed`] peer is
/// *dead or unreachable* (nothing was delivered), a [`NetError::Timeout`]
/// peer is *slow or silent* (the request may have been applied), and a
/// mid-call [`NetError::Io`] leaves delivery ambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The deadline expired after the request was (possibly) delivered.
    Timeout,
    /// No connection could be established — refused, reset during dial,
    /// unreachable, or the dial timed out. The request was never sent.
    ConnectFailed(String),
    /// The connection failed mid-call (reset, closed, write error) after
    /// the request may have been sent: delivery is ambiguous.
    Io(String),
    /// Bytes arrived but were not a valid frame or message.
    Corrupt(String),
    /// The server shed the request before dispatch (accept queue full).
    /// Definitely not applied; retry after backoff.
    Overloaded,
}

impl NetError {
    /// True when the request was provably never delivered to the server,
    /// making a replay unconditionally safe even for non-idempotent
    /// requests.
    pub fn definitely_not_delivered(&self) -> bool {
        matches!(self, NetError::ConnectFailed(_) | NetError::Overloaded)
    }

    /// True when an idempotent request may reasonably be retried.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, NetError::Corrupt(_))
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout => write!(f, "rpc deadline exceeded"),
            NetError::ConnectFailed(what) => write!(f, "rpc connect failed: {what}"),
            NetError::Io(what) => write!(f, "rpc io error: {what}"),
            NetError::Corrupt(what) => write!(f, "rpc corrupt reply: {what}"),
            NetError::Overloaded => write!(f, "server overloaded (request shed before dispatch)"),
        }
    }
}

impl std::error::Error for NetError {}

/// Replay policy for one logical call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryMode {
    /// The request is safe to replay at will (predict, health, weight
    /// reads, dedupe-keyed ship/observe). Retries any retryable error.
    Idempotent,
    /// The request must not run twice. Retries only errors that prove
    /// the request was never delivered ([`NetError::ConnectFailed`],
    /// [`NetError::Overloaded`]); the first ambiguous failure is final.
    AtMostOnce,
}

fn classify(err: FrameError) -> NetError {
    match err {
        FrameError::Closed => NetError::Io("connection closed".into()),
        ref e @ FrameError::Io(_) if e.is_timeout() => NetError::Timeout,
        FrameError::Io(e) => NetError::Io(e.to_string()),
        FrameError::Corrupt(what) => NetError::Corrupt(what),
        FrameError::TooLarge(len) => NetError::Corrupt(format!("frame length {len} too large")),
    }
}

/// Per-client counters, registered under `/metrics` by the runtime so
/// dashboards can tell a dead peer (connect failures) from a slow one
/// (timeouts).
#[derive(Debug, Clone)]
pub struct ClientMetrics {
    /// RPC attempts sent (first tries + retries).
    pub attempts: Arc<Counter>,
    /// Attempts that were retries of an earlier failure.
    pub retries: Arc<Counter>,
    /// Attempts that failed to establish a connection.
    pub connect_failures: Arc<Counter>,
    /// Attempts that expired (per-try or whole-call deadline).
    pub timeouts: Arc<Counter>,
    /// Attempts that died mid-call on a connection error.
    pub io_errors: Arc<Counter>,
    /// Replies shed by an overloaded server before dispatch.
    pub overloaded: Arc<Counter>,
}

impl ClientMetrics {
    /// Fresh zeroed counters. Share one instance across a peer's client
    /// incarnations so the series survive restarts.
    pub fn new() -> Self {
        ClientMetrics {
            attempts: Arc::new(Counter::new()),
            retries: Arc::new(Counter::new()),
            connect_failures: Arc::new(Counter::new()),
            timeouts: Arc::new(Counter::new()),
            io_errors: Arc::new(Counter::new()),
            overloaded: Arc::new(Counter::new()),
        }
    }

    /// Registers the counters with `registry`, labelled for one peer.
    pub fn register(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_counter("velox_net_client_attempts_total", labels, self.attempts.clone());
        registry.register_counter("velox_net_client_retries_total", labels, self.retries.clone());
        registry.register_counter(
            "velox_net_client_connect_failures_total",
            labels,
            self.connect_failures.clone(),
        );
        registry.register_counter("velox_net_client_timeouts_total", labels, self.timeouts.clone());
        registry.register_counter(
            "velox_net_client_io_errors_total",
            labels,
            self.io_errors.clone(),
        );
        registry.register_counter(
            "velox_net_client_overloaded_total",
            labels,
            self.overloaded.clone(),
        );
    }

    fn count(&self, err: &NetError) {
        match err {
            NetError::Timeout => self.timeouts.inc(),
            NetError::ConnectFailed(_) => self.connect_failures.inc(),
            NetError::Io(_) | NetError::Corrupt(_) => self.io_errors.inc(),
            NetError::Overloaded => self.overloaded.inc(),
        }
    }
}

impl Default for ClientMetrics {
    fn default() -> Self {
        ClientMetrics::new()
    }
}

/// Attachment point for the CHAOS-NET adversary: the shared engine plus
/// this client's directional link identity.
#[derive(Clone)]
pub struct ChaosLink {
    /// The backend-wide fault engine.
    pub chaos: Arc<LinkChaos>,
    /// Sending peer id (`FRONT_PEER` for the routing tier).
    pub src: u32,
    /// Receiving peer id (the node this client dials).
    pub dst: u32,
}

/// An RPC client for one node address.
pub struct NetClient {
    addr: SocketAddr,
    config: NetClientConfig,
    /// The one idle connection kept between calls; concurrent calls dial
    /// their own and only one is kept afterwards. Each kept connection
    /// pins a worker thread at the server while idle, and a second one
    /// per client measured 1.22× `peak_rss_mb` on the benchmark's
    /// `rest_cluster_durable` workload.
    idle: Mutex<Option<TcpStream>>,
    metrics: ClientMetrics,
    backoff_rng: Mutex<VeloxRng>,
    chaos: Option<ChaosLink>,
}

impl NetClient {
    /// Creates a client for `addr` with default configuration. No
    /// connection is made until the first call.
    pub fn connect(addr: SocketAddr) -> NetClient {
        NetClient::with_config(addr, NetClientConfig::default())
    }

    /// Creates a client with explicit configuration.
    pub fn with_config(addr: SocketAddr, config: NetClientConfig) -> NetClient {
        NetClient {
            addr,
            config,
            idle: Mutex::new(None),
            metrics: ClientMetrics::new(),
            backoff_rng: Mutex::new(VeloxRng::seed_from(BACKOFF_SEED)),
            chaos: None,
        }
    }

    /// Attaches the chaos engine to this client's link (builder-style).
    pub fn with_chaos(mut self, link: ChaosLink) -> NetClient {
        self.chaos = Some(link);
        self
    }

    /// Shares externally owned counters (builder-style), so a peer's
    /// metrics survive its clients being rebuilt on restart.
    pub fn with_metrics(mut self, metrics: ClientMetrics) -> NetClient {
        self.metrics = metrics;
        self
    }

    /// The node this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This client's attempt/failure counters.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// One RPC round trip under the default deadline.
    pub fn call(&self, req: &Request) -> Result<Response, NetError> {
        self.call_deadline(req, self.config.request_timeout)
    }

    /// One RPC round trip under the default deadline, propagating `trace`
    /// in the frame header extension when present.
    pub fn call_traced(
        &self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<Response, NetError> {
        self.call_deadline_traced(req, self.config.request_timeout, trace)
    }

    /// One RPC round trip that must complete within `deadline`, retrying
    /// (reconnects included) while the deadline and the attempt budget
    /// both have room.
    pub fn call_deadline(&self, req: &Request, deadline: Duration) -> Result<Response, NetError> {
        self.call_deadline_traced(req, deadline, None)
    }

    /// [`NetClient::call_deadline`] with trace-context propagation.
    pub fn call_deadline_traced(
        &self,
        req: &Request,
        deadline: Duration,
        trace: Option<&TraceContext>,
    ) -> Result<Response, NetError> {
        self.call_mode(req, deadline, trace, RetryMode::Idempotent)
    }

    /// The full-control entry point: deadline, trace, and replay policy.
    pub fn call_mode(
        &self,
        req: &Request,
        deadline: Duration,
        trace: Option<&TraceContext>,
        mode: RetryMode,
    ) -> Result<Response, NetError> {
        self.call_with(req, deadline, trace, mode, None)
    }

    /// [`NetClient::call_traced`] that runs `while_waiting` after the
    /// request frame is on the wire and before the reply is read — once,
    /// on the first attempt that sends — so the caller's own work overlaps
    /// the peer's. Its time is not charged to the attempt's deadline. A
    /// call that never sends a frame never runs it; the caller checks.
    pub fn call_overlapped(
        &self,
        req: &Request,
        trace: Option<&TraceContext>,
        while_waiting: &mut dyn FnMut(),
    ) -> Result<Response, NetError> {
        let deadline = self.config.request_timeout;
        self.call_with(req, deadline, trace, RetryMode::Idempotent, Some(while_waiting))
    }

    fn call_with(
        &self,
        req: &Request,
        deadline: Duration,
        trace: Option<&TraceContext>,
        mode: RetryMode,
        mut while_waiting: Option<&mut dyn FnMut()>,
    ) -> Result<Response, NetError> {
        let started = Instant::now();
        let payload = req.encode();
        let budget = self.config.retry.max_attempts.max(1);
        let mut last_err: Option<NetError> = None;
        for attempt in 0..budget {
            let remaining = match deadline.checked_sub(started.elapsed()) {
                Some(d) if !d.is_zero() => d,
                _ => return Err(last_err.unwrap_or(NetError::Timeout)),
            };
            if attempt > 0 {
                self.metrics.retries.inc();
                let uniform = self.backoff_rng.lock().unwrap().uniform();
                let pause = self.config.retry.backoff(attempt - 1, uniform);
                if pause >= remaining {
                    return Err(last_err.unwrap_or(NetError::Timeout));
                }
                std::thread::sleep(pause);
            }
            self.metrics.attempts.inc();

            let verdict = match &self.chaos {
                Some(link) => link.chaos.verdict(link.src, link.dst),
                None => LinkVerdict::default(),
            };
            if verdict.partitioned_request {
                // The forward path is cut: the dial (or the frame) would
                // never arrive. Fail fast without burning the deadline —
                // provably not delivered, so every mode may retry.
                let e = NetError::ConnectFailed("chaos: link partitioned".into());
                self.metrics.count(&e);
                last_err = Some(e);
                continue;
            }

            let remaining = match deadline.checked_sub(started.elapsed()) {
                Some(d) if !d.is_zero() => d,
                _ => return Err(last_err.unwrap_or(NetError::Timeout)),
            };
            let try_budget = match self.config.per_try_timeout {
                Some(cap) => cap.min(remaining),
                None => remaining,
            };
            let try_started = Instant::now();
            let mut conn = match self.checkout(try_budget, attempt > 0) {
                Ok(c) => c,
                Err(e) => {
                    self.metrics.count(&e);
                    last_err = Some(e);
                    continue;
                }
            };
            let outcome = round_trip(
                &mut conn,
                &payload,
                try_started,
                try_budget,
                trace,
                &verdict,
                &mut while_waiting,
            );
            match outcome {
                Ok(Response::Error { code: ErrorCode::Overloaded, .. }) => {
                    // The server shed us before reading the request and
                    // closed the connection: provably not applied.
                    let e = NetError::Overloaded;
                    self.metrics.count(&e);
                    last_err = Some(e);
                }
                Ok(resp) => {
                    if verdict.clean() || only_delay(&verdict) {
                        self.check_in(conn);
                    }
                    return Ok(resp);
                }
                Err((e, sent)) => {
                    self.metrics.count(&e);
                    let fatal =
                        mode == RetryMode::AtMostOnce && sent && !e.definitely_not_delivered();
                    last_err = Some(e);
                    if fatal {
                        // The request may have been applied; a blind
                        // replay could run it twice. The caller owns any
                        // dedupe-protected recovery from here.
                        return Err(last_err.unwrap());
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| NetError::Io("exhausted retries".into())))
    }

    /// Takes the idle connection, or dials. `force_fresh` skips the idle
    /// one (used on retry, when the kept connection just failed).
    fn checkout(&self, remaining: Duration, force_fresh: bool) -> Result<TcpStream, NetError> {
        if !force_fresh {
            if let Some(conn) = self.idle.lock().unwrap().take() {
                return Ok(conn);
            }
        }
        let connect_budget = CONNECT_TIMEOUT.min(remaining);
        let conn = TcpStream::connect_timeout(&self.addr, connect_budget).map_err(|e| {
            if e.kind() == ErrorKind::TimedOut || e.kind() == ErrorKind::WouldBlock {
                NetError::ConnectFailed(format!("connect {} timed out", self.addr))
            } else {
                NetError::ConnectFailed(format!("connect {}: {e}", self.addr))
            }
        })?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    /// Keeps a healthy connection for the next call (dropped when one is
    /// already kept).
    fn check_in(&self, conn: TcpStream) {
        self.idle.lock().unwrap().get_or_insert(conn);
    }
}

fn only_delay(v: &LinkVerdict) -> bool {
    let mut stripped = *v;
    stripped.delay_us = 0;
    stripped.clean()
}

/// Sends one frame and reads one reply, arming socket timeouts from the
/// remaining attempt budget before each blocking step and applying the
/// chaos verdict to the real socket. Runs `while_waiting` (taking it)
/// between a delivered send and the read. Errors carry a `sent` flag:
/// whether the request bytes may have reached the server (ambiguous
/// delivery).
fn round_trip(
    conn: &mut TcpStream,
    payload: &[u8],
    mut started: Instant,
    deadline: Duration,
    trace: Option<&TraceContext>,
    verdict: &LinkVerdict,
    while_waiting: &mut Option<&mut dyn FnMut()>,
) -> Result<Response, (NetError, bool)> {
    let arm = |conn: &TcpStream, started: Instant| -> Result<(), NetError> {
        let remaining = deadline.checked_sub(started.elapsed()).ok_or(NetError::Timeout)?;
        if remaining.is_zero() {
            return Err(NetError::Timeout);
        }
        conn.set_write_timeout(Some(remaining)).map_err(|e| NetError::Io(e.to_string()))?;
        conn.set_read_timeout(Some(remaining)).map_err(|e| NetError::Io(e.to_string()))?;
        Ok(())
    };
    arm(conn, started).map_err(|e| (e, false))?;

    if verdict.delay_us > 0 {
        let delay = Duration::from_micros(verdict.delay_us).min(deadline);
        std::thread::sleep(delay);
        arm(conn, started).map_err(|e| (e, false))?;
    }

    if verdict.drop {
        // The request frame is lost in flight. From this side the write
        // "succeeded", so delivery is ambiguous (`sent = true`) and the
        // only observable outcome is a reply that never comes.
        let mut byte = [0u8; 1];
        use std::io::Read;
        return match conn.read(&mut byte) {
            Ok(0) => Err((NetError::Io("connection closed".into()), true)),
            Ok(_) => Err((NetError::Io("unsolicited reply".into()), true)),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Err((NetError::Timeout, true))
            }
            Err(e) => Err((NetError::Io(e.to_string()), true)),
        };
    }

    if verdict.corrupt {
        // Corrupt the frame after framing: flip one payload bit so the
        // server's CRC check must reject it and close the connection.
        use std::io::Write;
        let mut bytes = encode_frame_ext(payload, trace).map_err(|e| (classify(e), false))?;
        let mid = bytes.len() - payload.len() / 2 - 1;
        bytes[mid] ^= 0x10;
        conn.write_all(&bytes).map_err(|e| (NetError::Io(e.to_string()), true))?;
        let _ = conn.flush();
        // The server drops the connection without replying.
        return match read_frame(conn) {
            Ok(_) => Err((NetError::Io("reply to corrupt frame".into()), true)),
            Err(e) => Err((classify(e), true)),
        };
    }

    write_frame_ext(conn, payload, trace).map_err(|e| (classify(e), true))?;

    if verdict.duplicate {
        // Deliver the frame twice. The server will process both and
        // write two replies; we read one and poison the connection, so
        // the request layer's dedupe is what must absorb the replay.
        write_frame_ext(conn, payload, trace).map_err(|e| (classify(e), true))?;
    }

    if verdict.reset {
        // Sever the connection right after the send: the classic
        // applied-but-never-acked shape.
        let _ = conn.shutdown(Shutdown::Both);
        return Err((NetError::Io("connection reset (chaos)".into()), true));
    }

    if verdict.partitioned_response {
        // The reverse path is cut: the request arrives and is applied,
        // but no ack can come back.
        return Err((NetError::Timeout, true));
    }

    if let Some(work) = while_waiting.take() {
        // The peer is on the request: overlap the caller's own work with
        // it, off the attempt's clock.
        let paused = Instant::now();
        work();
        started += paused.elapsed();
    }
    arm(conn, started).map_err(|e| (e, true))?;
    let reply = read_frame(conn).map_err(|e| (classify(e), true))?;
    let resp = Response::decode(&reply).map_err(|e| (NetError::Corrupt(e.to_string()), true))?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetServer, NetServerConfig};
    use std::sync::Arc;

    fn health_server() -> NetServer {
        NetServer::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| match req {
                Request::Health => Response::Ok,
                _ => Response::Error { code: ErrorCode::BadRequest, message: "health".into() },
            }),
            NetServerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn calls_reuse_the_kept_connection() {
        let server = health_server();
        let client = NetClient::connect(server.local_addr());
        for _ in 0..20 {
            assert_eq!(client.call(&Request::Health).unwrap(), Response::Ok);
        }
        assert_eq!(client.metrics().attempts.get(), 20);
        assert_eq!(client.metrics().retries.get(), 0);
    }

    #[test]
    fn reconnects_after_server_restart_on_same_port() {
        let mut server = health_server();
        let addr = server.local_addr();
        let client = NetClient::connect(addr);
        assert_eq!(client.call(&Request::Health).unwrap(), Response::Ok);
        server.shutdown();
        let mut server2 =
            NetServer::bind(&addr.to_string(), Arc::new(|_| Response::Ok), Default::default())
                .unwrap();
        // The kept connection is dead; the call must redial transparently.
        assert_eq!(client.call(&Request::Health).unwrap(), Response::Ok);
        server2.shutdown();
    }

    #[test]
    fn refused_connection_classifies_as_connect_failed() {
        let addr: SocketAddr = {
            // Bind then drop to get a port with (very likely) no listener.
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = NetClient::connect(addr);
        let started = Instant::now();
        let err = client.call_deadline(&Request::Health, Duration::from_millis(300)).unwrap_err();
        assert!(matches!(err, NetError::ConnectFailed(_)), "got {err:?}");
        assert!(err.definitely_not_delivered());
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(client.metrics().connect_failures.get() >= 1);
    }

    /// The redial-once bug: with a generous deadline the client must keep
    /// reconnecting (with backoff) until the attempt budget — not bail
    /// after a single redial. Attempt 1 hits a dead kept connection,
    /// attempt 2's redial is refused (listener gone), attempt 3 must
    /// still happen and succeed against the restarted listener.
    #[test]
    fn retries_reconnect_while_deadline_budget_remains() {
        let mut server = health_server();
        let addr = server.local_addr();
        let config = NetClientConfig {
            retry: RetryPolicy {
                max_attempts: 6,
                backoff_base: Duration::from_millis(30),
                backoff_max: Duration::from_millis(60),
                jitter: 0.0,
            },
            ..Default::default()
        };
        let client = NetClient::with_config(addr, config);
        assert_eq!(client.call(&Request::Health).unwrap(), Response::Ok);
        server.shutdown();
        // Restart the listener after ~one backoff, while the client is
        // already mid-call burning attempts against the dead port.
        let addr_str = addr.to_string();
        let restarter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            NetServer::bind(&addr_str, Arc::new(|_| Response::Ok), Default::default()).unwrap()
        });
        let resp = client.call_deadline(&Request::Health, Duration::from_secs(5)).unwrap();
        assert_eq!(resp, Response::Ok);
        assert!(
            client.metrics().retries.get() >= 2,
            "expected multiple redials, got {}",
            client.metrics().retries.get()
        );
        restarter.join().unwrap().shutdown();
    }

    /// AtMostOnce stops at the first ambiguous (post-send) failure
    /// instead of replaying a request that may have been applied.
    #[test]
    fn at_most_once_does_not_replay_ambiguous_failures() {
        let mut server = health_server();
        let addr = server.local_addr();
        let client = NetClient::with_config(
            addr,
            NetClientConfig {
                retry: RetryPolicy { max_attempts: 5, ..Default::default() },
                per_try_timeout: Some(Duration::from_millis(150)),
                ..Default::default()
            },
        );
        assert_eq!(client.call(&Request::Health).unwrap(), Response::Ok);
        // Kill the server: the kept connection dies mid-call, which is
        // a post-send ambiguous failure.
        server.shutdown();
        let err = client
            .call_mode(&Request::Health, Duration::from_secs(2), None, RetryMode::AtMostOnce)
            .unwrap_err();
        assert!(!err.definitely_not_delivered(), "got {err:?}");
        // One initial attempt only — no replays of the ambiguous failure.
        assert_eq!(client.metrics().retries.get(), 0);
    }
}
