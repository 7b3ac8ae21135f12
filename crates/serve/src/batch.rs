//! The adaptive batching queue: per-backend request coalescing under an
//! AIMD-controlled batch size.
//!
//! ## Why batch
//!
//! A single predict is dominated by per-call overhead — snapshot loads,
//! weight-table reads, cache probes, lock traffic under concurrency. One
//! batched pass amortizes all of it (Clipper's core serving-tier insight),
//! trading a small queueing delay for a large throughput win.
//!
//! ## AIMD under a latency SLO
//!
//! The batch size is not configured; it is *learned* against the
//! per-backend SLO, TCP-congestion-control style:
//!
//! ```text
//!            batch served, batch SERVICE latency vs SLO
//!
//!              service under SLO and batch was full
//!            +--------------------------------------+
//!            |                                      v
//!        +-------+  service      +----------------------+
//!        | size  |  over SLO     | size += step (AI)    |
//!        | /= 2  | <------------ | (cap: max_batch)     |
//!        | (MD)  | ------------> |                      |
//!        +-------+   next batch  +----------------------+
//! ```
//!
//! Additive increase only fires when the served batch actually filled the
//! current target — queue pressure, not optimism, grows the batch.
//! Multiplicative decrease halves the target (floor 1) when the *batch
//! service latency* — the one thing batch size controls — exceeds the
//! SLO, so a service-time regression backs off in O(log) batches.
//!
//! The controller deliberately ignores queue wait (Clipper keys its AIMD
//! off processing latency for the same reason): under a backlog every
//! request is over the SLO end-to-end *regardless* of batch size, and
//! the cure for a backlog is a BIGGER batch. Folding queue wait into the
//! decrease signal creates a death spiral — backlog ⇒ violation ⇒
//! halve ⇒ worse backlog — that pins the lane at singleton batches
//! exactly when batching matters most. End-to-end latency is still what
//! the SLO-violation counter and request-latency histogram report, so
//! overload remains visible; it just doesn't drive the batch size down.
//!
//! ## Serve the lane when it is free
//!
//! Nothing ever waits for a fuller batch. A request that finds the lane
//! free is served at once, alone, on the caller's own thread — no hand-off
//! to a worker and back. Batches form only from requests that queued
//! *while the previous batch was in service* — Clipper's rule: a batch is
//! delayed only when load has already built a queue. When a batch
//! finishes, the lane passes to the oldest queued request's thread, which
//! takes `min(queue length, batch target)` requests (itself first) and
//! serves them as one pass. The AIMD target is the cap on what one pass
//! takes, not a size to wait for: the target settles at clients + 1, so a
//! timed wait for a fuller batch would expire on every batch and add its
//! whole length to every low-load request.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use velox_core::Item;
use velox_obs::{Counter, Gauge, Histogram, Registry, SpanKind, SpanStatus, Tracer, FRONT_NODE};

use crate::backend::ServedPredict;
use crate::error::ServeError;
use crate::manager::ModelManager;

/// Batching-queue configuration, per backend.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Latency SLO. The AIMD controller sizes batches so one batched
    /// pass (service time) stays within it; the violation counter and
    /// latency histogram measure requests end-to-end (queue wait +
    /// service) against the same bound.
    pub slo: Duration,
    /// Hard cap on the learned batch size.
    pub max_batch: usize,
    /// Initial batch-size target.
    pub initial_batch: usize,
    /// Additive-increase step applied after a full batch under SLO.
    pub additive_step: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            slo: Duration::from_millis(5),
            max_batch: 256,
            initial_batch: 1,
            additive_step: 1,
        }
    }
}

/// Point-in-time serving statistics of one backend lane.
#[derive(Debug, Clone)]
pub struct LaneStats {
    /// Requests served through the lane.
    pub requests: u64,
    /// Batched passes executed.
    pub batches: u64,
    /// Mean served batch size.
    pub mean_batch: f64,
    /// Current AIMD batch-size target.
    pub batch_target: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Requests whose end-to-end latency exceeded the SLO.
    pub slo_violations: u64,
    /// p99 end-to-end request latency, nanoseconds.
    pub request_p99_ns: u64,
}

/// What a queued request's thread is waiting for.
enum Turn {
    Wait,
    /// The lane passed to this request: serve the next batch.
    Lead,
    Done(Result<ServedPredict, ServeError>),
}

struct Slot {
    turn: Mutex<Turn>,
    cv: Condvar,
}

impl Slot {
    fn set(&self, turn: Turn) {
        *self.turn.lock().unwrap() = turn;
        self.cv.notify_one();
    }
}

struct Queue {
    pending: VecDeque<Pending>,
    /// A batch is in service; arrivals queue behind it.
    busy: bool,
}

struct Pending {
    uid: u64,
    item: Item,
    enqueued: Instant,
    slot: Arc<Slot>,
}

/// One backend's queue, AIMD state, and metrics, shared by the callers:
/// whichever holds the lane serves the batch.
pub(crate) struct Lane {
    name: String,
    config: BatchConfig,
    manager: ModelManager,
    tracer: Arc<Tracer>,
    queue: Mutex<Queue>,
    batch_target: AtomicUsize,
    stop: AtomicBool,
    requests: Arc<Counter>,
    batches: Arc<Counter>,
    slo_violations: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    batch_size_hist: Arc<Histogram>,
    batch_latency_ns: Arc<Histogram>,
    request_latency_ns: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
}

impl Lane {
    pub(crate) fn new(
        name: &str,
        config: BatchConfig,
        registry: &Registry,
        manager: ModelManager,
        tracer: Arc<Tracer>,
    ) -> Arc<Lane> {
        let labels: &[(&str, &str)] = &[("backend", name)];
        Arc::new(Lane {
            name: name.to_string(),
            config,
            manager,
            tracer,
            queue: Mutex::new(Queue { pending: VecDeque::new(), busy: false }),
            batch_target: AtomicUsize::new(config.initial_batch.clamp(1, config.max_batch)),
            stop: AtomicBool::new(false),
            requests: registry.counter_with("velox_serve_requests_total", labels),
            batches: registry.counter_with("velox_serve_batches_total", labels),
            slo_violations: registry.counter_with("velox_serve_slo_violations_total", labels),
            queue_depth: registry.gauge_with("velox_serve_queue_depth", labels),
            batch_size_hist: registry.histogram_with("velox_serve_batch_size", labels),
            batch_latency_ns: registry.histogram_with("velox_serve_batch_latency_ns", labels),
            request_latency_ns: registry.histogram_with("velox_serve_request_latency_ns", labels),
            queue_wait_ns: registry.histogram_with("velox_serve_queue_wait_ns", labels),
        })
    }

    pub(crate) fn stats(&self) -> LaneStats {
        let requests = self.requests.get();
        let batches = self.batches.get();
        LaneStats {
            requests,
            batches,
            mean_batch: if batches == 0 { 0.0 } else { requests as f64 / batches as f64 },
            batch_target: self.batch_target.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().unwrap().pending.len(),
            slo_violations: self.slo_violations.get(),
            request_p99_ns: self.request_latency_ns.snapshot().p99(),
        }
    }

    /// Enqueues one request and blocks until its batch is served — on
    /// this thread, when the lane is free or passes to it.
    pub(crate) fn predict(&self, uid: u64, item: &Item) -> Result<ServedPredict, ServeError> {
        let slot = Arc::new(Slot { turn: Mutex::new(Turn::Wait), cv: Condvar::new() });
        let lead = {
            let mut q = self.queue.lock().unwrap();
            if self.stop.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            q.pending.push_back(Pending {
                uid,
                item: item.clone(),
                enqueued: Instant::now(),
                slot: Arc::clone(&slot),
            });
            self.queue_depth.set(q.pending.len() as i64);
            !std::mem::replace(&mut q.busy, true)
        };
        if !lead {
            let mut turn = slot.turn.lock().unwrap();
            loop {
                match std::mem::replace(&mut *turn, Turn::Wait) {
                    Turn::Wait => turn = slot.cv.wait(turn).unwrap(),
                    Turn::Lead => break,
                    Turn::Done(result) => return result,
                }
            }
        }
        // This request is at the head of the queue, so the batch taken
        // now answers it.
        let batch = {
            let mut q = self.queue.lock().unwrap();
            let target = self.batch_target.load(Ordering::Relaxed).clamp(1, self.config.max_batch);
            let n = q.pending.len().min(target);
            let batch: Vec<Pending> = q.pending.drain(..n).collect();
            self.queue_depth.set(q.pending.len() as i64);
            batch
        };
        let results = self.serve(&batch);
        let mut own = None;
        for (pending, result) in batch.into_iter().zip(results) {
            if Arc::ptr_eq(&pending.slot, &slot) {
                own = Some(result);
            } else {
                pending.slot.set(Turn::Done(result));
            }
        }
        // Pass the lane on only after this batch has its answers: the
        // callers just answered re-enqueue meanwhile, so under closed-loop
        // load the next pass is a full one rather than half of one.
        let mut q = self.queue.lock().unwrap();
        match q.pending.front() {
            Some(next) => next.slot.set(Turn::Lead),
            None => q.busy = false,
        }
        drop(q);
        own.expect("a lane holder's own request heads its batch")
    }

    /// Refuses new work; requests already queued are still served.
    pub(crate) fn shutdown(&self) {
        let _q = self.queue.lock().unwrap();
        self.stop.store(true, Ordering::Release);
    }

    /// One batched pass: one manager snapshot → one backend call →
    /// metrics and AIMD adjust. Returns one result per request.
    fn serve(&self, batch: &[Pending]) -> Vec<Result<ServedPredict, ServeError>> {
        let root = self.tracer.ingress(SpanKind::Batch, FRONT_NODE);
        let started = Instant::now();
        // One manager snapshot per batch: an alias flip concurrent with
        // this pass cannot be observed mid-batch.
        let snapshot = self.manager.snapshot();
        let requests: Vec<(u64, Item)> = batch.iter().map(|p| (p.uid, p.item.clone())).collect();
        let mut results = match snapshot.resolve(&self.name) {
            Ok(entry) => {
                let ctx = root.as_ref().map(|r| r.ctx());
                let span = self.tracer.child(ctx.as_ref(), SpanKind::Backend, FRONT_NODE);
                // The pass runs on a caller's thread with others queued
                // behind it: a panicking backend fails its batch rather
                // than unwinding out of the lane and wedging it.
                let results =
                    catch_unwind(AssertUnwindSafe(|| entry.backend.predict_batch(&requests)))
                        .unwrap_or_default();
                self.tracer.finish(span);
                results
            }
            Err(e) => {
                if let Some(r) = root.as_ref() {
                    let span = self.tracer.child(Some(&r.ctx()), SpanKind::Backend, FRONT_NODE);
                    self.tracer.finish_status(span, SpanStatus::Error);
                }
                batch.iter().map(|_| Err(e.clone())).collect()
            }
        };
        // Every request gets an answer, even from a backend that broke the
        // one-result-per-request contract: its waiter would block forever.
        results.resize_with(batch.len(), || {
            Err(ServeError::Custom("backend gave no answer for this request".into()))
        });
        let service = started.elapsed();
        self.batch_latency_ns.record_duration(service);
        self.batch_size_hist.record(batch.len() as u64);
        self.batches.inc();
        self.requests.add(batch.len() as u64);
        for pending in batch {
            self.queue_wait_ns.record_duration(started.saturating_duration_since(pending.enqueued));
            let latency = pending.enqueued.elapsed();
            self.request_latency_ns.record_duration(latency);
            if latency > self.config.slo {
                self.slo_violations.inc();
            }
        }
        self.adjust_target(batch.len(), service);
        if let Some(r) = root {
            self.tracer.end_root(r);
        }
        results
    }

    /// AIMD step after serving a batch. `service` is the batched pass's
    /// own latency, NOT end-to-end request latency — see the module doc
    /// for why queue wait must stay out of the decrease signal.
    fn adjust_target(&self, served: usize, service: Duration) {
        let target = self.batch_target.load(Ordering::Relaxed);
        let next = if service > self.config.slo {
            (target / 2).max(1)
        } else if served >= target {
            (target + self.config.additive_step).min(self.config.max_batch)
        } else {
            target
        };
        self.batch_target.store(next, Ordering::Relaxed);
    }
}
