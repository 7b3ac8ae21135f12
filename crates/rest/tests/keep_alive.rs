//! HTTP/1.1 keep-alive on the shared connection pool: one client, one
//! connection, many calls; pipelined requests answered in order; prompt
//! shutdown with idle kept connections parked; a connection the server
//! closed while idle redialed without a lost or doubled observe; and a
//! connection flood shed without a thread per connection.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use velox_cluster::Transport;
use velox_core::VeloxServer;
use velox_net::{NetCluster, NetClusterConfig};
use velox_obs::Registry;
use velox_rest::http::read_response;
use velox_rest::{ClusterBackend, RestHandle, RestServer, RetryPolicy, ServerConfig, VeloxClient};
use velox_serve::{ServeConfig, ServeTier, TransportBackend, CLUSTER_BACKEND};

/// The flood test reads the process's thread count, so this file's tests
/// take turns rather than share the process's threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const DIM: usize = 4;

/// REST → serving tier (cluster backend) → three-node TCP cluster: the
/// path `rest_cluster_durable` drives, minus the WAL.
struct Front {
    net: Arc<NetCluster>,
    tier: Arc<ServeTier>,
    registry: Arc<Registry>,
    handle: RestHandle,
}

impl Front {
    fn start(config: ServerConfig) -> Front {
        let net = Arc::new(
            NetCluster::start(NetClusterConfig {
                n_nodes: 3,
                user_replication: 2,
                lr: 0.1,
                wal_root: None,
                workers: 8,
                request_timeout: Duration::from_secs(2),
                ..Default::default()
            })
            .expect("start loopback cluster"),
        );
        net.publish_item_features(
            (0..16u64)
                .map(|i| (i, (0..DIM).map(|d| ((i + d as u64) % 5) as f64 / 4.0).collect()))
                .collect(),
        );
        let transport: ClusterBackend = Arc::clone(&net) as _;
        let tier = ServeTier::with_config(ServeConfig::default());
        tier.register(CLUSTER_BACKEND, Arc::new(TransportBackend::new(Arc::clone(&transport))))
            .expect("register cluster backend");
        let server = RestServer::with_config(Arc::new(VeloxServer::new()), config)
            .with_cluster(transport)
            .with_serving(Arc::clone(&tier));
        let registry = server.registry();
        let handle = server.serve("127.0.0.1:0").expect("bind");
        Front { net, tier, registry, handle }
    }

    fn client(&self) -> VeloxClient {
        VeloxClient::new(self.handle.addr(), "cluster")
            .with_retry(RetryPolicy { max_attempts: 1, ..Default::default() })
    }

    fn connections(&self) -> u64 {
        self.registry.snapshot().counter("velox_rest_connections_total")
    }

    /// Observes the owners applied, over every node.
    fn applied(&self) -> u64 {
        (0..3).map(|n| self.net.node_metrics(n).observes.get()).sum()
    }

    fn shutdown(self) {
        self.handle.shutdown();
        self.tier.shutdown();
        self.net.shutdown();
    }
}

fn plain_server(config: ServerConfig) -> (RestHandle, Arc<Registry>) {
    let server = RestServer::with_config(Arc::new(VeloxServer::new()), config);
    let registry = server.registry();
    (server.serve("127.0.0.1:0").expect("bind"), registry)
}

#[test]
fn one_client_makes_every_call_on_one_connection() {
    let _turn = serial();
    let front = Front::start(ServerConfig::default());
    let client = front.client();
    let (mut predicts, mut acks) = (0, 0u64);
    for i in 0..200u64 {
        let (uid, item) = (i % 7, (i * 5) % 16);
        match i % 3 {
            0 => {
                client.cluster_observe(uid, item, (i % 4) as f64).expect("observe");
                acks += 1;
            }
            1 => {
                let served = client.cluster_predict(uid, item).expect("predict").score;
                let direct = front.net.predict(uid, item).expect("direct predict").score;
                assert_eq!(served.to_bits(), direct.to_bits(), "({uid}, {item})");
                predicts += 1;
            }
            _ => assert_eq!(client.list_models().expect("list"), Vec::<String>::new()),
        }
    }
    assert_eq!(predicts, 67);
    assert_eq!(front.connections(), 1, "200 calls, one accepted connection");
    assert_eq!(front.applied(), acks);
    front.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let _turn = serial();
    let (handle, _) = plain_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
        .write_all(
            b"GET /models HTTP/1.1\r\nconnection: keep-alive\r\n\r\n\
              GET /no/such/route HTTP/1.1\r\nconnection: keep-alive\r\n\r\n",
        )
        .expect("send both");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = read_response(&mut reader).expect("first response");
    assert_eq!(first.status, 200);
    assert_eq!(first.body, br#"{"models":[]}"#);
    assert!(first.reusable, "keep-alive was asked for and granted");
    let second = read_response(&mut reader).expect("second response");
    assert_eq!(second.status, 404);
    assert!(second.reusable);
    handle.shutdown();
}

#[test]
fn shutdown_is_prompt_with_idle_kept_connections_parked() {
    let _turn = serial();
    let (handle, registry) = plain_server(ServerConfig::default());
    let clients: Vec<VeloxClient> =
        (0..2).map(|_| VeloxClient::new(handle.addr(), "unused")).collect();
    for client in &clients {
        client.list_models().expect("list");
    }
    assert_eq!(registry.snapshot().counter("velox_rest_connections_total"), 2);
    // Both workers now sit in read() on a kept connection with a 30 s
    // read timeout; shutdown must sever them, not wait them out.
    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(1), "shutdown took {:?}", started.elapsed());
}

#[test]
fn a_connection_closed_while_idle_is_redialed_without_a_double_apply() {
    let _turn = serial();
    let front = Front::start(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    // One attempt per call: the stale connection must be noticed before
    // the observe is written, not retried after.
    let client = front.client();
    client.cluster_observe(3, 1, 1.0).expect("first observe");
    std::thread::sleep(Duration::from_millis(400));
    client.cluster_observe(3, 2, 0.5).expect("observe after the server closed the idle connection");
    assert_eq!(front.connections(), 2, "the closed connection was redialed once");
    assert_eq!(front.applied(), 2, "two acks, two applies");
    front.shutdown();
}

/// `Threads:` from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_connection_flood_is_shed_without_a_thread_per_connection() {
    let _turn = serial();
    let (handle, registry) = plain_server(ServerConfig {
        max_in_flight: 0,
        shed_retry_after: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let baseline = thread_count();
    let peak = Arc::new(AtomicUsize::new(baseline));
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, done) = (Arc::clone(&peak), Arc::clone(&done));
        std::thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                peak.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let shed_503 = |stream: &mut TcpStream| {
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read shed answer");
        let head = response.split("\r\n\r\n").next().unwrap_or("");
        assert!(response.starts_with("HTTP/1.1 503"), "shed response: {response}");
        assert!(head.lines().any(|l| l.eq_ignore_ascii_case("retry-after: 2")), "{head}");
    };
    // Fifty clients that connect and say nothing — each used to pin a
    // thread in read() for the 30 s read timeout — then 150 that ask.
    let mut silent: Vec<TcpStream> =
        (0..50).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    for _ in 0..150 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /models HTTP/1.1\r\ncontent-length: 0\r\n\r\n").expect("send");
        shed_503(&mut stream);
    }
    for stream in &mut silent {
        shed_503(stream);
    }
    done.store(true, Ordering::Release);
    sampler.join().unwrap();

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("velox_rest_shed_total"), 200);
    assert_eq!(snapshot.counter("velox_rest_connections_total"), 200);
    let peak = peak.load(Ordering::Relaxed);
    // The sampler itself is the only thread the flood may add.
    assert!(peak <= baseline + 4, "threads rose from {baseline} to {peak} during the flood");
    handle.shutdown();
}
