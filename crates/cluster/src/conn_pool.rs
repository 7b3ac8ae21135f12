//! One TCP accept loop and a bounded, lazily grown worker pool, shared by
//! `velox-net`'s frame server and `velox-rest`'s HTTP server.
//!
//! An accept thread hands each connection to a worker thread, which owns
//! it until its serve function returns — a persistent connection keeps
//! its worker for as long as the peer keeps it open. No async runtime, no
//! epoll: both servers see few long-lived connections (cluster peers, a
//! handful of keep-alive REST clients), so pinning a worker per live
//! connection is the simplest design that serves the paper's workload.
//!
//! Workers are spawned on demand, never more than [`PoolConfig::workers`];
//! an idle worker is reused before a new one is spawned, so an idle pool
//! costs one thread. When every worker is busy, up to
//! [`PoolConfig::max_pending`] accepted connections wait for one; past
//! that the accept thread hands the connection to the shed function
//! (which must return promptly — it runs on the accept thread, so no
//! thread is ever spawned for a connection that is turned away).
//!
//! Shutdown is prompt even with workers blocked in `read`: the pool keeps
//! a clone of every live connection in a slab and calls
//! `TcpStream::shutdown` on each, which unblocks the owning worker.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use velox_obs::Counter;

/// Pool sizing plus the two counters the pool keeps.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Most connections served at once; each pins one worker thread.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before new
    /// arrivals are shed. Zero sheds as soon as every worker is busy.
    pub max_pending: usize,
    /// Incremented for every accepted connection, served or shed.
    pub accepted: Arc<Counter>,
    /// Incremented for every shed connection.
    pub shed: Arc<Counter>,
}

/// Connections waiting for a worker, and how many workers exist and are
/// free to take one. `idle` counts a spawned worker from the moment it is
/// spawned, so a connection pushed for it is never counted as waiting.
struct Queue {
    pending: VecDeque<TcpStream>,
    idle: usize,
    spawned: usize,
}

struct Shared {
    stop: AtomicBool,
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Clones of the connections being served, severed on shutdown.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running pool; dropping it (or calling [`ConnPool::shutdown`]) stops
/// the accept loop, severs every live connection, and joins all threads.
pub struct ConnPool {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ConnPool {
    /// Binds `addr` (port 0 for an ephemeral port) and serves each
    /// accepted connection with `serve(stream, stop)` on a worker; `stop`
    /// turns true at shutdown, for loops that check it between requests.
    /// Connections past the pool's bound go to `shed` on the accept thread.
    pub fn bind<S, D>(addr: &str, config: PoolConfig, serve: S, shed: D) -> io::Result<ConnPool>
    where
        S: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
        D: Fn(TcpStream) + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            queue: Mutex::new(Queue { pending: VecDeque::new(), idle: 0, spawned: 0 }),
            ready: Condvar::new(),
            live: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let serve = Arc::new(serve);
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name("velox-accept".into()).spawn(move || {
                for incoming in listener.incoming() {
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    config.accepted.inc();
                    let _ = stream.set_nodelay(true);
                    match admit(&shared, &config, &serve, stream) {
                        Ok(()) => shared.ready.notify_one(),
                        Err(stream) => {
                            config.shed.inc();
                            shed(stream);
                        }
                    }
                }
            })?
        };
        Ok(ConnPool { addr: local, shared, accept: Some(accept) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, severs every live connection, and joins all
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; once it is
        // joined no worker can be spawned behind our back.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Wake workers parked on the queue. Holding the queue lock while
        // notifying means a worker that checked `stop` before the swap has
        // already reached `wait` and cannot miss the wakeup.
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.pending.clear();
            self.shared.ready.notify_all();
        }
        // ...and workers parked in read().
        for (_, conn) in self.shared.live.lock().unwrap().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for ConnPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Queues `stream` for a worker — spawning one first if none is free and
/// the pool is under its bound — or hands it back to be shed.
fn admit<S>(
    shared: &Arc<Shared>,
    config: &PoolConfig,
    serve: &Arc<S>,
    stream: TcpStream,
) -> Result<(), TcpStream>
where
    S: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let mut queue = shared.queue.lock().unwrap();
    if queue.pending.len() >= queue.idle && queue.spawned < config.workers {
        let (pool, serve) = (Arc::clone(shared), Arc::clone(serve));
        let spawned = std::thread::Builder::new()
            .name("velox-conn".into())
            .spawn(move || worker(&pool, &*serve));
        if let Ok(handle) = spawned {
            queue.spawned += 1;
            queue.idle += 1;
            shared.workers.lock().unwrap().push(handle);
        }
    }
    if queue.pending.len() < queue.idle + config.max_pending {
        queue.pending.push_back(stream);
        Ok(())
    } else {
        Err(stream)
    }
}

/// One worker: take a connection, serve it to the end, repeat until
/// shutdown.
fn worker(shared: &Shared, serve: &dyn Fn(TcpStream, &AtomicBool)) {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Some(stream) = queue.pending.pop_front() else {
            queue = shared.ready.wait(queue).unwrap();
            continue;
        };
        queue.idle -= 1;
        drop(queue);

        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.live.lock().unwrap().insert(id, clone);
        }
        // Checked after the slab insert: a shutdown that drained the slab
        // before the insert has already set `stop`.
        if !shared.stop.load(Ordering::Acquire) {
            // A panicking serve function loses its connection, not the
            // worker: the pool must not shrink under a bad request.
            let _ = catch_unwind(AssertUnwindSafe(|| serve(stream, &shared.stop)));
        }
        shared.live.lock().unwrap().remove(&id);

        queue = shared.queue.lock().unwrap();
        queue.idle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn config(workers: usize, max_pending: usize) -> PoolConfig {
        PoolConfig {
            workers,
            max_pending,
            accepted: Arc::new(Counter::new()),
            shed: Arc::new(Counter::new()),
        }
    }

    /// Echoes every byte until the peer closes.
    fn echo(stream: TcpStream, _stop: &AtomicBool) {
        let mut buf = [0u8; 64];
        let mut s = &stream;
        while let Ok(n) = s.read(&mut buf) {
            if n == 0 || s.write_all(&buf[..n]).is_err() {
                return;
            }
        }
    }

    fn round_trip(conn: &mut TcpStream, byte: u8) -> u8 {
        conn.write_all(&[byte]).unwrap();
        let mut got = [0u8; 1];
        conn.read_exact(&mut got).unwrap();
        got[0]
    }

    #[test]
    fn workers_are_spawned_on_demand_and_reused() {
        let cfg = config(4, 0);
        let pool = ConnPool::bind("127.0.0.1:0", cfg.clone(), echo, drop).unwrap();
        assert_eq!(pool.shared.queue.lock().unwrap().spawned, 0, "no worker before a connection");
        for i in 0..5u8 {
            let mut conn = TcpStream::connect(pool.local_addr()).unwrap();
            assert_eq!(round_trip(&mut conn, i), i);
            drop(conn);
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(pool.shared.queue.lock().unwrap().spawned, 1, "one idle worker is reused");
        assert_eq!(cfg.accepted.get(), 5);
        assert_eq!(cfg.shed.get(), 0);
    }

    #[test]
    fn connections_past_the_bound_are_shed_on_the_accept_thread() {
        let cfg = config(1, 0);
        let pool = ConnPool::bind("127.0.0.1:0", cfg.clone(), echo, drop).unwrap();
        let mut held = TcpStream::connect(pool.local_addr()).unwrap();
        assert_eq!(round_trip(&mut held, 7), 7);
        let mut shed = TcpStream::connect(pool.local_addr()).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(shed.read(&mut buf).unwrap_or(0), 0, "a shed connection is closed");
        assert_eq!(cfg.shed.get(), 1);
        assert_eq!(pool.shared.queue.lock().unwrap().spawned, 1);
    }

    #[test]
    fn shutdown_severs_parked_connections() {
        let mut pool = ConnPool::bind("127.0.0.1:0", config(4, 0), echo, drop).unwrap();
        let _a = TcpStream::connect(pool.local_addr()).unwrap();
        let _b = TcpStream::connect(pool.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        pool.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_panicking_serve_function_keeps_its_worker() {
        let cfg = config(1, 0);
        let pool = ConnPool::bind(
            "127.0.0.1:0",
            cfg.clone(),
            |stream: TcpStream, stop: &AtomicBool| {
                let mut first = [0u8; 1];
                if (&stream).read_exact(&mut first).is_ok() && first[0] == b'!' {
                    panic!("bad request");
                }
                echo(stream, stop);
            },
            drop,
        )
        .unwrap();
        let mut bad = TcpStream::connect(pool.local_addr()).unwrap();
        bad.write_all(b"!").unwrap();
        bad.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let _ = bad.read(&mut [0u8; 1]);
        std::thread::sleep(Duration::from_millis(20));
        let mut good = TcpStream::connect(pool.local_addr()).unwrap();
        good.write_all(b"x").unwrap();
        assert_eq!(round_trip(&mut good, 9), 9);
        assert_eq!(cfg.shed.get(), 0, "the worker survived the panic");
    }
}
