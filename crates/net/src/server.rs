//! Blocking TCP frame server on the shared connection pool.
//!
//! The accept loop, the bounded worker pool and the live-connection slab
//! are [`velox_cluster::ConnPool`]'s — the same pool `velox-rest` serves
//! HTTP on. What is this server's own is the per-connection loop (one
//! frame in, one frame out, until the peer closes) and the shed reply: a
//! connection that finds every worker busy and the accept queue full gets
//! an [`ErrorCode::Overloaded`] frame and a close. Size `workers` above the
//! expected number of concurrently connected peers; workers are spawned
//! as connections arrive, never more than `workers`.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use velox_cluster::{ConnPool, PoolConfig};
use velox_obs::{Counter, TraceContext};

use crate::frame::{read_frame_ext, write_frame, FrameError};
use crate::rpc::{ErrorCode, Request, Response};

/// Per-request transport metadata handed to [`Handler::handle_traced`]:
/// the propagated trace context (if the caller sent one) plus the
/// trace-clock time the request frame finished arriving, which lets the
/// handler account decode + dispatch ("server queue wait") to a span.
#[derive(Debug, Clone, Copy, Default)]
pub struct RpcContext {
    /// Trace context from the frame header extension, if any.
    pub trace: Option<TraceContext>,
    /// [`velox_obs::trace::now_ns`] right after the frame was read
    /// (0 when the request carried no trace context).
    pub recv_ns: u64,
    /// Unknown header-extension TLVs skipped while decoding the frame.
    pub unknown_exts: u32,
}

/// Implemented by whatever owns the node's state; called once per frame.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one decoded request.
    fn handle(&self, req: Request) -> Response;

    /// Like [`Handler::handle`], but with transport metadata. The default
    /// ignores the metadata, so plain closures keep working; trace-aware
    /// handlers (the cluster's `NodeState`) override this.
    fn handle_traced(&self, req: Request, rpc: RpcContext) -> Response {
        let _ = rpc;
        self.handle(req)
    }
}

impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Worker threads (each pins one live connection). Must exceed the
    /// number of concurrently connected peers.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before the
    /// server sheds new arrivals with an [`ErrorCode::Overloaded`] reply
    /// and a close — bounded so a worker-pool stall degrades into clean,
    /// retryable errors instead of an unbounded queue of hung dials.
    pub max_pending: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig { workers: 8, max_pending: 64 }
    }
}

/// A running server; dropping it (or calling [`NetServer::shutdown`])
/// stops the accept loop, unblocks every worker, and joins all threads.
pub struct NetServer {
    pool: ConnPool,
    shed: Arc<Counter>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `handler` on up to `config.workers` threads.
    pub fn bind(
        addr: &str,
        handler: Arc<dyn Handler>,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let shed = Arc::new(Counter::new());
        let pool = ConnPool::bind(
            addr,
            PoolConfig {
                workers: config.workers.max(1),
                max_pending: config.max_pending.max(1),
                accepted: Arc::new(Counter::new()),
                shed: Arc::clone(&shed),
            },
            move |stream, stop| serve_connection(stream, &*handler, stop),
            shed_connection,
        )?;
        Ok(NetServer { pool, shed })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.pool.local_addr()
    }

    /// Connections shed with an `Overloaded` reply because the accept
    /// queue was full.
    pub fn shed_count(&self) -> u64 {
        self.shed.get()
    }

    /// Stops accepting, severs every live connection, and joins all
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.pool.shutdown();
    }
}

/// Tells a shed connection why it is being turned away, then closes it.
/// The reply frame arrives before the peer's first request, which is
/// fine: the client reads one response per request, so the `Overloaded`
/// error is what its in-flight (or next) call observes, and the close
/// behind it fails any further use of the connection fast.
fn shed_connection(stream: TcpStream) {
    let reply =
        Response::Error { code: ErrorCode::Overloaded, message: "server accept queue full".into() };
    let mut writer = &stream;
    let _ = write_frame(&mut writer, &reply.encode());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One connection's request/response loop: runs until the peer closes,
/// the bytes stop parsing, or the server shuts down.
fn serve_connection(stream: TcpStream, handler: &dyn Handler, stop: &AtomicBool) {
    // Buffer the read side so one kernel read covers the whole frame —
    // extended frames are parsed in several small reads (header, ext_len,
    // ext, payload) that must not each cost a syscall. Writes stay on the
    // raw stream; `&TcpStream` is `Read + Write`, so shutdown still
    // severs both sides.
    let mut reader = std::io::BufReader::with_capacity(4096, &stream);
    let mut writer = &stream;
    loop {
        let (payload, meta) = match read_frame_ext(&mut reader) {
            Ok(p) => p,
            Err(_) => return, // orderly close, torn frame, or severed by shutdown
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let rpc = RpcContext {
            trace: meta.trace,
            recv_ns: if meta.trace.is_some() { velox_obs::trace::now_ns() } else { 0 },
            unknown_exts: meta.unknown_exts,
        };
        let response = match Request::decode(&payload) {
            Ok(req) => handler.handle_traced(req, rpc),
            Err(e) => Response::Error { code: ErrorCode::BadRequest, message: e.to_string() },
        };
        if let Err(err) = write_frame(&mut writer, &response.encode()) {
            // A client that vanished mid-response is routine; anything else
            // still just drops the connection (the client will redial).
            let _ = err;
            return;
        }
    }
}

/// Classifies a [`FrameError`] for retry decisions: timeouts are distinct
/// from hard connection failures.
pub fn frame_error_is_fatal(err: &FrameError) -> bool {
    !err.is_timeout()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use std::time::Duration;

    fn echo_server() -> NetServer {
        NetServer::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| match req {
                Request::Health => Response::Ok,
                Request::FetchWeights { uid } => Response::Weights { w: Some(vec![uid as f64]) },
                _ => Response::Error { code: ErrorCode::BadRequest, message: "echo only".into() },
            }),
            NetServerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn serves_frames_over_a_persistent_connection() {
        let server = echo_server();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        for uid in 0..10u64 {
            write_frame(&mut conn, &Request::FetchWeights { uid }.encode()).unwrap();
            let resp = Response::decode(&read_frame(&mut conn).unwrap()).unwrap();
            assert_eq!(resp, Response::Weights { w: Some(vec![uid as f64]) });
        }
    }

    #[test]
    fn garbage_payload_gets_bad_request() {
        let server = echo_server();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut conn, &[0xFF, 0xFE]).unwrap();
        match Response::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_unblocks_parked_workers() {
        let mut server = echo_server();
        // Park a worker on an idle connection, then shut down; the join in
        // shutdown() only returns if the worker was unblocked.
        let _idle = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
    }
}
