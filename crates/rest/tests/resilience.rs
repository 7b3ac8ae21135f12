//! Resilience tests for the REST layer: server-side load shedding and the
//! client's retry + circuit-breaker behaviour against a misbehaving
//! server.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use velox_core::{Velox, VeloxConfig};
use velox_models::IdentityModel;
use velox_rest::{
    BreakerConfig, BreakerState, ClientError, RestServer, RetryPolicy, ServerConfig, VeloxClient,
};
use velox_serve::{ServeTier, VeloxBackend};

fn deployments() -> Arc<ServeTier> {
    let server = Arc::new(ServeTier::new());
    let model = IdentityModel::new("songs", 2, 0.5);
    let velox =
        Arc::new(Velox::deploy(Arc::new(model), HashMap::new(), VeloxConfig::single_node()));
    for item in 0..4u64 {
        velox.register_item(item, vec![item as f64, 1.0]);
    }
    server.register("songs", Arc::new(VeloxBackend::new(velox))).unwrap();
    server
}

/// Sends one raw HTTP request and returns `(status, body)`.
fn raw_call(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request =
        format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 =
        response.split_whitespace().nth(1).expect("status line").parse().expect("numeric status");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn saturated_server_sheds_with_503() {
    // max_in_flight = 0: every connection is over the limit, so every
    // request is shed. The server must still answer each one promptly
    // with 503 rather than hanging or dropping the connection.
    let config = ServerConfig { max_in_flight: 0, ..ServerConfig::default() };
    let handle = RestServer::with_config(deployments(), config).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    for _ in 0..3 {
        let (status, body) = raw_call(addr, "GET", "/models", "");
        assert_eq!(status, 503);
        assert!(body.contains("shed"), "shed body: {body}");
    }
    handle.shutdown();
}

#[test]
fn shed_503_carries_retry_after() {
    let config = ServerConfig {
        max_in_flight: 0,
        shed_retry_after: Duration::from_secs(3),
        ..ServerConfig::default()
    };
    let handle = RestServer::with_config(deployments(), config).serve("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"GET /models HTTP/1.1\r\ncontent-length: 0\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let head = response.split("\r\n\r\n").next().unwrap_or("");
    assert!(response.starts_with("HTTP/1.1 503"), "shed response: {response}");
    assert!(
        head.lines().any(|l| l.eq_ignore_ascii_case("retry-after: 3")),
        "missing retry-after header in: {head}"
    );
    handle.shutdown();
}

/// The client must honor a server-provided `Retry-After` in place of its
/// own (much shorter here) exponential backoff, and surface the parsed
/// duration on the error.
#[test]
fn client_honors_retry_after_before_backoff() {
    let config = ServerConfig {
        max_in_flight: 0,
        shed_retry_after: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let handle = RestServer::with_config(deployments(), config).serve("127.0.0.1:0").expect("bind");
    let client = VeloxClient::new(handle.addr(), "songs")
        .with_timeout(Duration::from_secs(2))
        .with_retry(fast_retry(2))
        .with_breaker(BreakerConfig { failure_threshold: 100, cooldown: Duration::from_secs(5) });
    let started = std::time::Instant::now();
    match client.list_models() {
        Err(ClientError::Server { status: 503, retry_after, .. }) => {
            assert_eq!(retry_after, Some(Duration::from_secs(1)), "Retry-After must be parsed");
        }
        other => panic!("expected shed 503, got {other:?}"),
    }
    // Two attempts with one wait between them: the wait must be the
    // server's 1s, not fast_retry's ~1ms backoff.
    assert!(
        started.elapsed() >= Duration::from_millis(900),
        "client retried after only {:?}; Retry-After was ignored",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn unsaturated_server_does_not_shed() {
    let config = ServerConfig { max_in_flight: 8, ..ServerConfig::default() };
    let handle = RestServer::with_config(deployments(), config).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let (status, _) = raw_call(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// A hand-rolled one-thread server whose behaviour is toggled at runtime:
/// in fail mode it accepts and immediately drops connections; in healthy
/// mode it answers every request `200 {"models": []}`.
struct FlakyServer {
    addr: std::net::SocketAddr,
    failing: Arc<AtomicBool>,
    accepts: Arc<AtomicU32>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FlakyServer {
    fn start(failing: bool) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let failing = Arc::new(AtomicBool::new(failing));
        let accepts = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (failing2, accepts2, stop2) =
            (Arc::clone(&failing), Arc::clone(&accepts), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                accepts2.fetch_add(1, Ordering::AcqRel);
                if failing2.load(Ordering::Acquire) {
                    // Drop the connection without answering: the client
                    // sees a protocol/socket failure.
                    continue;
                }
                // Drain the request head, then answer.
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let body = r#"{"models": []}"#;
                let response = format!(
                    "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
        });
        FlakyServer { addr, failing, accepts, stop, thread: Some(thread) }
    }

    fn heal(&self) {
        self.failing.store(false, Ordering::Release);
    }
}

impl Drop for FlakyServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        jitter: 0.4,
    }
}

#[test]
fn client_retries_through_transient_failures() {
    let server = FlakyServer::start(true);
    let client = VeloxClient::new(server.addr, "songs")
        .with_timeout(Duration::from_secs(2))
        .with_retry(fast_retry(5))
        .with_breaker(BreakerConfig { failure_threshold: 100, cooldown: Duration::from_secs(5) });

    // Heal the server from a side thread after the first couple of
    // attempts have failed: the retry loop must pick up the recovery.
    let failing = Arc::clone(&server.failing);
    let healer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(3));
        failing.store(false, Ordering::Release);
    });
    let models = client.list_models().expect("retries should reach the healed server");
    assert_eq!(models, Vec::<String>::new());
    healer.join().unwrap();
    assert!(server.accepts.load(Ordering::Acquire) >= 1);
}

#[test]
fn exhausted_retries_surface_the_error() {
    let server = FlakyServer::start(true);
    let client = VeloxClient::new(server.addr, "songs")
        .with_timeout(Duration::from_secs(2))
        .with_retry(fast_retry(2))
        .with_breaker(BreakerConfig { failure_threshold: 100, cooldown: Duration::from_secs(5) });
    match client.list_models() {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        other => panic!("expected transport error after retries, got {other:?}"),
    }
    assert_eq!(server.accepts.load(Ordering::Acquire), 2, "one accept per attempt");
}

#[test]
fn breaker_opens_half_opens_and_closes() {
    let server = FlakyServer::start(true);
    let client = VeloxClient::new(server.addr, "songs")
        .with_timeout(Duration::from_secs(2))
        .with_retry(fast_retry(1))
        .with_breaker(BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(100) });

    assert_eq!(client.breaker_state("/models"), BreakerState::Closed);
    // Two failing calls (one attempt each) trip the breaker.
    assert!(client.list_models().is_err());
    assert!(client.list_models().is_err());
    assert_eq!(client.breaker_state("/models"), BreakerState::Open);

    // While open, calls short-circuit without touching the network.
    let accepts_when_opened = server.accepts.load(Ordering::Acquire);
    match client.list_models() {
        Err(ClientError::CircuitOpen { endpoint }) => assert_eq!(endpoint, "/models"),
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(server.accepts.load(Ordering::Acquire), accepts_when_opened);

    // After the cooldown the breaker half-opens and admits a probe.
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(client.breaker_state("/models"), BreakerState::HalfOpen);

    // A failed probe re-opens it.
    assert!(client.list_models().is_err());
    assert_eq!(client.breaker_state("/models"), BreakerState::Open);

    // A successful probe after the next cooldown closes it.
    server.heal();
    std::thread::sleep(Duration::from_millis(120));
    client.list_models().expect("probe against healed server");
    assert_eq!(client.breaker_state("/models"), BreakerState::Closed);
    client.list_models().expect("closed breaker serves normally");
}

#[test]
fn application_errors_do_not_trip_the_breaker() {
    let handle = RestServer::new(deployments()).serve("127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let client = VeloxClient::new(addr, "no-such-model")
        .with_retry(fast_retry(1))
        .with_breaker(BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(5) });
    for _ in 0..3 {
        assert!(matches!(client.predict(1, 1), Err(ClientError::Server { status: 404, .. })));
    }
    assert_eq!(client.breaker_state("/models/no-such-model/predict"), BreakerState::Closed);
    handle.shutdown();
}
