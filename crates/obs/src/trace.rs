//! End-to-end request tracing with per-hop tail-latency attribution.
//!
//! A request mints a [`TraceContext`] at ingress (REST handler or bench
//! client), carries it across process-internal call boundaries and the
//! velox-net frame header, and every instrumented hop records a completed
//! [`SpanRecord`] into a lock-free per-node [`SpanRing`]. Nothing is
//! buffered per-request and nothing allocates on the hot path: recording a
//! span is one ticket `fetch_add` plus a seqlock-guarded burst of relaxed
//! stores into a preallocated ring slot.
//!
//! # Sampling policy
//!
//! The [`Tracer`] combines *head* and *tail* sampling:
//!
//! - **Head**: every `sample_one_in`-th ingress request is sampled
//!   unconditionally (deterministic counter cadence, not RNG, so tests and
//!   benches are reproducible). Head-sampled traces are always indexed in
//!   the kept ring.
//! - **Tail**: when `slow_threshold_ns` is set, *all* requests record
//!   spans (recording is ~100 ns per hop), but only requests whose total
//!   latency exceeds the threshold are indexed as "slow" — this is what
//!   lets `GET /traces/slow` show the actual p99 outliers instead of a
//!   random head sample that was probably fast.
//!
//! Traces that record spans but are not kept simply age out of the rings
//! as slots are reused; `GET /trace/<id>` can still reassemble them while
//! the slots survive.
//!
//! # Ring sizing
//!
//! Each node (plus the cluster front) owns one [`SpanRing`] of
//! `RING_CAPACITY` = 4096 slots. A slot is 56 bytes, so that is ~230 KiB
//! per node. A traced observe produces ~8 spans across three rings; 4096
//! slots per ring therefore retain on the order of the last few thousand
//! requests — enough for a scrape-and-fetch monitoring loop at serving
//! rates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sentinel node id for spans recorded by the cluster front (router /
/// client side) rather than a serving node.
pub const FRONT_NODE: u32 = u32::MAX;

static TRACE_ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first trace-clock read in this process, via the
/// OS monotonic clock.
#[inline]
fn monotonic_ns() -> u64 {
    let anchor = TRACE_ANCHOR.get_or_init(Instant::now);
    // u64 arithmetic on (secs, subsec) instead of `as_nanos()`'s u128 —
    // this sits on every span boundary of the hot path. Saturates after
    // ~584 years of uptime, which is fine for an anchor-relative clock.
    let d = anchor.elapsed();
    d.as_secs().saturating_mul(1_000_000_000).saturating_add(d.subsec_nanos() as u64)
}

/// Calibration for reading the trace clock straight from the TSC:
/// `ns = anchor_ns + (rdtsc() − anchor_cycles) · mult ≫ 24`, with `mult`
/// a 40.24 fixed-point nanoseconds-per-cycle.
#[cfg(target_arch = "x86_64")]
struct TscParams {
    anchor_cycles: u64,
    anchor_ns: u64,
    mult: u64,
}

#[cfg(target_arch = "x86_64")]
static TSC: OnceLock<Option<TscParams>> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
fn calibrate_tsc() -> Option<TscParams> {
    // Only trust the TSC where the kernel itself selected it as the
    // clocksource — that check subsumes invariant-TSC and cross-core
    // synchronization. Anywhere else (VMs with emulated counters, old
    // hardware) the monotonic-clock path stays in effect.
    let src =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .ok()?;
    if src.trim() != "tsc" {
        return None;
    }
    let c0 = rdtsc();
    let t0 = monotonic_ns();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let c1 = rdtsc();
    let t1 = monotonic_ns();
    if c1 <= c0 || t1 <= t0 {
        return None;
    }
    // ~2 ms window with ≲1 µs read jitter bounds the rate error around
    // 0.05% — sub-nanosecond per microsecond of span duration.
    let mult = (((t1 - t0) as u128) << 24) / ((c1 - c0) as u128);
    Some(TscParams { anchor_cycles: c1, anchor_ns: t1, mult: mult as u64 })
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: `rdtsc` has no memory effects; it only reads the counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Nanoseconds since the first trace-clock read in this process.
///
/// All tracers in a process share this anchor, so span timestamps from a
/// `SimTransport` and a loopback TCP cluster running side by side are
/// directly comparable. On x86-64 with the kernel's clocksource set to
/// `tsc`, reads come straight from the calibrated TSC (~3× cheaper than
/// a vDSO `clock_gettime`, and this call sits on every span boundary);
/// everywhere else it is the OS monotonic clock.
#[inline]
pub fn now_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(p) = TSC.get_or_init(calibrate_tsc) {
        let cycles = rdtsc().wrapping_sub(p.anchor_cycles);
        return p.anchor_ns.saturating_add(((cycles as u128 * p.mult as u128) >> 24) as u64);
    }
    monotonic_ns()
}

/// The per-request context propagated across hops.
///
/// `span_id` is the id of the *calling* span: the receiving hop records
/// its own span with `parent_span_id = ctx.span_id`. On the wire this is
/// 17 bytes inside the frame-header extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole request tree. Never zero for a live trace.
    pub trace_id: u64,
    /// The span the next hop should parent itself under.
    pub span_id: u64,
    /// Whether downstream hops should record spans for this request.
    pub sampled: bool,
}

/// What a span measured. The numeric value is stable (it is packed into
/// ring slots and could appear on the wire), so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// REST ingress: the whole HTTP request.
    RestRequest = 0,
    /// Cluster-front predict: route + RPC + retries.
    ClusterPredict = 1,
    /// Cluster-front observe: route + RPC + retries.
    ClusterObserve = 2,
    /// Owner choice for a user (hash route + health filter).
    Route = 3,
    /// Marker: the home node was down and a replica was chosen instead.
    Failover = 4,
    /// One RPC attempt as seen by the caller (serialize + network + server).
    RpcCall = 5,
    /// Server side: from frame arrival to handler dispatch (queue + decode).
    ServerRecv = 6,
    /// NodeServer predict handler (model compute).
    NodePredict = 7,
    /// NodeServer observe handler (WAL + weight update + shipping).
    NodeObserve = 8,
    /// WAL record serialization + buffered write.
    WalAppend = 9,
    /// WAL fsync (per the node's fsync policy).
    WalFsync = 10,
    /// Owner-side ShipLog round trip to one replica.
    ShipReplica = 11,
    /// Replica-side application of a shipped observation.
    ShipApply = 12,
    /// Marker: an RPC attempt failed on a link fault and was retried
    /// (budgeted backoff).
    Retry = 13,
    /// Marker: the primary read ran past the hedge delay and a hedged
    /// attempt was sent to a replica.
    Hedge = 14,
    /// One phase of a live partition migration (dual-write install,
    /// checkpoint stream, catch-up, cutover, tail replay).
    Migrate = 15,
    /// One checkpoint chunk pulled and applied during a migration.
    MigrateChunk = 16,
    /// Marker: a migration rolled back (source stays authoritative).
    MigrateAbort = 17,
    /// One coalesced predict batch served by the adaptive batcher: drain,
    /// backend pass, and result distribution.
    Batch = 18,
    /// One backend `predict_batch` pass inside a serving-tier batch.
    Backend = 19,
}

impl SpanKind {
    /// All kinds, in numeric order.
    pub const ALL: [SpanKind; 20] = [
        SpanKind::RestRequest,
        SpanKind::ClusterPredict,
        SpanKind::ClusterObserve,
        SpanKind::Route,
        SpanKind::Failover,
        SpanKind::RpcCall,
        SpanKind::ServerRecv,
        SpanKind::NodePredict,
        SpanKind::NodeObserve,
        SpanKind::WalAppend,
        SpanKind::WalFsync,
        SpanKind::ShipReplica,
        SpanKind::ShipApply,
        SpanKind::Retry,
        SpanKind::Hedge,
        SpanKind::Migrate,
        SpanKind::MigrateChunk,
        SpanKind::MigrateAbort,
        SpanKind::Batch,
        SpanKind::Backend,
    ];

    /// Stable snake_case name (used in JSON and tables).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::RestRequest => "rest_request",
            SpanKind::ClusterPredict => "cluster_predict",
            SpanKind::ClusterObserve => "cluster_observe",
            SpanKind::Route => "route",
            SpanKind::Failover => "failover",
            SpanKind::RpcCall => "rpc_call",
            SpanKind::ServerRecv => "server_recv",
            SpanKind::NodePredict => "node_predict",
            SpanKind::NodeObserve => "node_observe",
            SpanKind::WalAppend => "wal_append",
            SpanKind::WalFsync => "wal_fsync",
            SpanKind::ShipReplica => "ship_replica",
            SpanKind::ShipApply => "ship_apply",
            SpanKind::Retry => "retry",
            SpanKind::Hedge => "hedge",
            SpanKind::Migrate => "migrate",
            SpanKind::MigrateChunk => "migrate_chunk",
            SpanKind::MigrateAbort => "migrate_abort",
            SpanKind::Batch => "batch",
            SpanKind::Backend => "backend",
        }
    }

    fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

/// Span outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum SpanStatus {
    /// The hop succeeded.
    #[default]
    Ok = 0,
    /// The hop failed (e.g. an RPC attempt that timed out before retry).
    Error = 1,
}

/// One completed span, as stored in (and read back out of) a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; 0 for a root span.
    pub parent_span_id: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Node that recorded it ([`FRONT_NODE`] for the cluster front).
    pub node: u32,
    /// Outcome.
    pub status: SpanStatus,
    /// Start, trace-clock nanoseconds ([`now_ns`]).
    pub start_ns: u64,
    /// End, trace-clock nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const SLOT_WORDS: usize = 6;

struct SpanSlot {
    /// Seqlock: even = stable, odd = write in progress, 0 = never written.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

/// A fixed-capacity, lock-free ring of completed spans.
///
/// Writers claim a slot by ticket (`fetch_add` on the head) and flip the
/// slot's seqlock odd while storing the six record words; a claim that
/// loses the CAS (another writer lapped the ring into the same slot)
/// drops the span and bumps a counter rather than blocking. Readers
/// double-read the sequence word to discard torn slots. All fields are
/// atomics, so concurrent access is safe; the only cost of a race is a
/// dropped or skipped span.
pub struct SpanRing {
    slots: Box<[SpanSlot]>,
    mask: u64,
    shift: u32,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRing {
    /// Creates a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(64).next_power_of_two();
        SpanRing {
            slots: (0..cap)
                .map(|_| SpanSlot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            mask: (cap - 1) as u64,
            shift: cap.trailing_zeros(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans dropped because a concurrent writer held the same slot.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one span. Never blocks; may drop under a same-slot race.
    ///
    /// The ticket pins both the slot and the sequence values that slot
    /// must go through this lap, so claiming it needs only a load + store
    /// instead of a CAS — the ticket `fetch_add` is the one locked
    /// instruction on this path (it runs on every span of every traced
    /// request). A slot whose sequence isn't at this lap's expected value
    /// still has a slower same-slot writer in it from `capacity` tickets
    /// ago; that lapped write drops, as before.
    pub fn push(&self, rec: &SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let expected = (ticket >> self.shift).wrapping_mul(2);
        if slot.seq.load(Ordering::Relaxed) != expected {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Only this ticket's owner can see `expected` here (tickets are
        // unique, and the next lap's value appears only after this write
        // completes), so the store cannot race another claim.
        slot.seq.store(expected + 1, Ordering::Relaxed);
        // Order the odd marker before the data so readers never validate
        // a torn record (free on x86, compiler fence elsewhere-ish).
        std::sync::atomic::fence(Ordering::Release);
        let meta = (rec.kind as u64) | ((rec.status as u64) << 8) | ((rec.node as u64) << 32);
        slot.words[0].store(rec.trace_id, Ordering::Relaxed);
        slot.words[1].store(rec.span_id, Ordering::Relaxed);
        slot.words[2].store(rec.parent_span_id, Ordering::Relaxed);
        slot.words[3].store(meta, Ordering::Relaxed);
        slot.words[4].store(rec.start_ns, Ordering::Relaxed);
        slot.words[5].store(rec.end_ns, Ordering::Relaxed);
        slot.seq.store(expected + 2, Ordering::Release);
    }

    /// Push attempts so far (successful or dropped).
    fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn read_slot(&self, i: usize) -> Option<SpanRecord> {
        let slot = &self.slots[i];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let words: [u64; SLOT_WORDS] =
            std::array::from_fn(|w| slot.words[w].load(Ordering::Relaxed));
        if slot.seq.load(Ordering::Acquire) != s1 {
            return None; // torn read: writer lapped us mid-copy
        }
        let kind = SpanKind::from_u8((words[3] & 0xff) as u8)?;
        let status = if (words[3] >> 8) & 0xff == 0 { SpanStatus::Ok } else { SpanStatus::Error };
        Some(SpanRecord {
            trace_id: words[0],
            span_id: words[1],
            parent_span_id: words[2],
            kind,
            node: (words[3] >> 32) as u32,
            status,
            start_ns: words[4],
            end_ns: words[5],
        })
    }

    /// All readable spans matching `trace_id`.
    pub fn collect(&self, trace_id: u64, out: &mut Vec<SpanRecord>) {
        for i in 0..self.slots.len() {
            if let Some(rec) = self.read_slot(i) {
                if rec.trace_id == trace_id {
                    out.push(rec);
                }
            }
        }
    }

    /// All readable spans in the ring (diagnostics / benches).
    pub fn scan(&self, out: &mut Vec<SpanRecord>) {
        for i in 0..self.slots.len() {
            if let Some(rec) = self.read_slot(i) {
                out.push(rec);
            }
        }
    }
}

/// Why a trace landed in the kept index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Head-sampled at ingress.
    Head,
    /// Exceeded the slow threshold at completion.
    Slow,
}

/// An entry in the kept-trace index (what `GET /traces/slow` serves).
#[derive(Debug, Clone, Copy)]
pub struct KeptTrace {
    /// The trace's id.
    pub trace_id: u64,
    /// Kind of the root span.
    pub root_kind: SpanKind,
    /// Total root duration.
    pub duration_ns: u64,
    /// Trace-clock time the root finished.
    pub end_ns: u64,
    /// Why it was kept.
    pub reason: KeepReason,
}

/// An in-flight span held by the instrumented code between begin and end.
#[derive(Debug, Clone, Copy)]
pub struct ActiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    kind: SpanKind,
    node: u32,
    start_ns: u64,
}

impl ActiveSpan {
    /// Context for propagating to children of this span.
    pub fn ctx(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: self.span_id, sampled: true }
    }

    /// Trace this span belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Start time on the trace clock ([`now_ns`]). Lets an adjacent span
    /// share this boundary instead of reading the clock again.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

/// A root span plus the head-sampling decision made at ingress.
#[derive(Debug, Clone, Copy)]
pub struct RootSpan {
    span: ActiveSpan,
    head: bool,
}

impl RootSpan {
    /// Context for children of the root.
    pub fn ctx(&self) -> TraceContext {
        self.span.ctx()
    }

    /// Trace id minted at ingress.
    pub fn trace_id(&self) -> u64 {
        self.span.trace_id
    }

    /// Start time on the trace clock ([`now_ns`]).
    pub fn start_ns(&self) -> u64 {
        self.span.start_ns
    }
}

/// The keep decision returned when a root span finishes.
#[derive(Debug, Clone, Copy)]
pub struct KeepDecision {
    /// The finished trace's id.
    pub trace_id: u64,
    /// Root duration.
    pub duration_ns: u64,
    /// Whether it was indexed into the kept ring.
    pub kept: bool,
}

/// Tracer configuration. See the module docs for the sampling semantics.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Master switch; a disabled tracer records nothing and costs one
    /// predictable branch per hop.
    pub enabled: bool,
    /// Head-sample every Nth ingress request: `1` samples all, `0`
    /// disables head sampling entirely (tail capture may still record).
    pub sample_one_in: u64,
    /// When set, record spans for every request and keep any whose root
    /// exceeds this many nanoseconds. When `None`, only head-sampled
    /// requests record at all.
    pub slow_threshold_ns: Option<u64>,
}

/// Slots per node ring.
const RING_CAPACITY: usize = 4096;
/// Entries in the kept-trace index.
const KEPT_CAPACITY: usize = 256;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            sample_one_in: 64,
            slow_threshold_ns: Some(10_000_000), // 10 ms
        }
    }
}

impl TraceConfig {
    /// A config that records every request (used by tests and benches).
    pub fn sample_all() -> Self {
        TraceConfig { sample_one_in: 1, ..TraceConfig::default() }
    }

    /// A disabled config.
    pub fn off() -> Self {
        TraceConfig { enabled: false, ..TraceConfig::default() }
    }
}

/// 0 is the "no id" sentinel on the wire, so minted ids avoid it.
fn nonzero_id(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

/// The first output of a splitmix64 stream seeded with `x`. A copy of
/// `velox_data::rng::splitmix64`: velox-obs depends on no workspace crate,
/// and giving it one would change the dependency graph the benchmark's
/// lock file pins.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mints contexts, applies the sampling policy, and owns the per-node
/// span rings plus the kept-trace index.
///
/// One tracer serves a whole cluster (all nodes are in-process); ring
/// index `n` belongs to node `n` and the last ring to the front.
pub struct Tracer {
    config: TraceConfig,
    rings: Vec<SpanRing>,
    next_id: AtomicU64,
    ingress_seq: AtomicU64,
    kept: Mutex<Vec<KeptTrace>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("config", &self.config)
            .field("rings", &self.rings.len())
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer for `n_nodes` serving nodes (plus the front ring).
    pub fn new(n_nodes: usize, config: TraceConfig) -> Arc<Tracer> {
        let rings = if config.enabled {
            (0..=n_nodes).map(|_| SpanRing::new(RING_CAPACITY)).collect()
        } else {
            Vec::new()
        };
        Arc::new(Tracer {
            config,
            rings,
            next_id: AtomicU64::new(1),
            ingress_seq: AtomicU64::new(0),
            kept: Mutex::new(Vec::new()),
        })
    }

    /// A tracer that records nothing (the default wiring).
    pub fn disabled() -> Arc<Tracer> {
        Tracer::new(0, TraceConfig::off())
    }

    /// Whether this tracer records anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    fn mint_id(&self) -> u64 {
        nonzero_id(splitmix64(self.next_id.fetch_add(1, Ordering::Relaxed)))
    }

    fn ring_for(&self, node: u32) -> &SpanRing {
        if node == FRONT_NODE || node as usize >= self.rings.len() - 1 {
            &self.rings[self.rings.len() - 1]
        } else {
            &self.rings[node as usize]
        }
    }

    /// Ingress decision for a new request. Returns `None` when this
    /// request should not record spans at all.
    pub fn ingress(&self, kind: SpanKind, node: u32) -> Option<RootSpan> {
        if !self.config.enabled {
            return None;
        }
        let n = self.ingress_seq.fetch_add(1, Ordering::Relaxed);
        let head = match self.config.sample_one_in {
            0 => false,
            1 => true,
            one_in => n.is_multiple_of(one_in),
        };
        if !head && self.config.slow_threshold_ns.is_none() {
            return None;
        }
        // One atomic claim covers both ids minted for a root span.
        let base = self.next_id.fetch_add(2, Ordering::Relaxed);
        Some(RootSpan {
            span: ActiveSpan {
                trace_id: nonzero_id(splitmix64(base)),
                span_id: nonzero_id(splitmix64(base.wrapping_add(1))),
                parent_span_id: 0,
                kind,
                node,
                start_ns: now_ns(),
            },
            head,
        })
    }

    /// Starts a child span under `ctx`. `None` when tracing is disabled,
    /// no context was propagated, or the context is unsampled.
    pub fn child(
        &self,
        ctx: Option<&TraceContext>,
        kind: SpanKind,
        node: u32,
    ) -> Option<ActiveSpan> {
        self.child_at(ctx, kind, node, 0)
    }

    /// Like [`Tracer::child`] but with an explicit start time (trace
    /// clock); zero reads the clock. Used when the span logically began
    /// before the code that opens it ran — e.g. a server receive span
    /// that starts when the request frame finished arriving — or when an
    /// adjacent span boundary already read the clock.
    pub fn child_at(
        &self,
        ctx: Option<&TraceContext>,
        kind: SpanKind,
        node: u32,
        start_ns: u64,
    ) -> Option<ActiveSpan> {
        if !self.config.enabled {
            return None;
        }
        let ctx = ctx?;
        if !ctx.sampled || ctx.trace_id == 0 {
            return None;
        }
        Some(ActiveSpan {
            trace_id: ctx.trace_id,
            span_id: self.mint_id(),
            parent_span_id: ctx.span_id,
            kind,
            node,
            start_ns: if start_ns == 0 { now_ns() } else { start_ns },
        })
    }

    /// Finishes a span successfully. `None` spans are a no-op, so call
    /// sites don't branch.
    #[inline]
    pub fn finish(&self, span: Option<ActiveSpan>) {
        self.finish_status(span, SpanStatus::Ok);
    }

    /// Finishes a span with an explicit status.
    pub fn finish_status(&self, span: Option<ActiveSpan>, status: SpanStatus) {
        if let Some(s) = span {
            self.store(&SpanRecord {
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_span_id: s.parent_span_id,
                kind: s.kind,
                node: s.node,
                status,
                start_ns: s.start_ns,
                end_ns: now_ns(),
            });
        }
    }

    /// Like [`Tracer::finish_status`] but with an explicit end time on the
    /// trace clock, so two spans meeting at a boundary (route → RPC, node
    /// work → server send) share one clock reading instead of each taking
    /// their own — the dominant cost of tracing a microsecond-scale RPC.
    /// A zero `end_ns` reads the clock, mirroring [`Tracer::child_at`].
    pub fn finish_status_at(&self, span: Option<ActiveSpan>, status: SpanStatus, end_ns: u64) {
        if let Some(s) = span {
            self.store(&SpanRecord {
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_span_id: s.parent_span_id,
                kind: s.kind,
                node: s.node,
                status,
                start_ns: s.start_ns,
                end_ns: if end_ns == 0 { now_ns() } else { end_ns },
            });
        }
    }

    /// Records an externally-timed span (e.g. WAL append/fsync timings
    /// measured by the storage layer) under `ctx`.
    pub fn record(
        &self,
        ctx: Option<&TraceContext>,
        kind: SpanKind,
        node: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.config.enabled {
            return;
        }
        let Some(ctx) = ctx else { return };
        if !ctx.sampled || ctx.trace_id == 0 {
            return;
        }
        self.store(&SpanRecord {
            trace_id: ctx.trace_id,
            span_id: self.mint_id(),
            parent_span_id: ctx.span_id,
            kind,
            node,
            status: SpanStatus::Ok,
            start_ns,
            end_ns,
        });
    }

    fn store(&self, rec: &SpanRecord) {
        self.ring_for(rec.node).push(rec);
    }

    /// Finishes a root span, records it, and applies the keep policy.
    pub fn end_root(&self, root: RootSpan) -> KeepDecision {
        self.end_root_at(root, 0)
    }

    /// Like [`Tracer::end_root`] but sharing an already-read clock value
    /// for the end boundary (zero reads the clock).
    pub fn end_root_at(&self, root: RootSpan, end_ns: u64) -> KeepDecision {
        let end_ns = if end_ns == 0 { now_ns() } else { end_ns };
        let duration_ns = end_ns.saturating_sub(root.span.start_ns);
        self.store(&SpanRecord {
            trace_id: root.span.trace_id,
            span_id: root.span.span_id,
            parent_span_id: 0,
            kind: root.span.kind,
            node: root.span.node,
            status: SpanStatus::Ok,
            start_ns: root.span.start_ns,
            end_ns,
        });
        let slow = self.config.slow_threshold_ns.is_some_and(|t| duration_ns >= t);
        let kept = root.head || slow;
        if kept {
            let entry = KeptTrace {
                trace_id: root.span.trace_id,
                root_kind: root.span.kind,
                duration_ns,
                end_ns,
                reason: if slow { KeepReason::Slow } else { KeepReason::Head },
            };
            let mut kept_ring = self.kept.lock().unwrap();
            kept_ring.push(entry);
            if kept_ring.len() > KEPT_CAPACITY {
                let excess = kept_ring.len() - KEPT_CAPACITY;
                kept_ring.drain(..excess);
            }
        }
        KeepDecision { trace_id: root.span.trace_id, duration_ns, kept }
    }

    /// All spans still readable for `trace_id`, across every ring,
    /// sorted by start time.
    pub fn collect(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.collect(trace_id, &mut out);
        }
        out.sort_by_key(|r| (r.start_ns, r.span_id));
        out
    }

    /// Every readable span across all rings (benches / diagnostics).
    pub fn scan_all(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.scan(&mut out);
        }
        out
    }

    /// Kept traces, newest first.
    pub fn kept(&self) -> Vec<KeptTrace> {
        let ring = self.kept.lock().unwrap();
        ring.iter().rev().copied().collect()
    }

    /// Kept traces that were slow (tail captures), newest first.
    pub fn slow(&self) -> Vec<KeptTrace> {
        self.kept().into_iter().filter(|k| k.reason == KeepReason::Slow).collect()
    }

    /// Trace id of the most recent kept trace, if any (histogram
    /// exemplars use this).
    pub fn last_kept(&self) -> Option<u64> {
        self.kept.lock().unwrap().last().map(|k| k.trace_id)
    }

    /// Total spans recorded since creation.
    pub fn spans_recorded(&self) -> u64 {
        // Derived from ring tickets instead of a dedicated counter, so
        // recording a span costs one locked instruction, not two.
        self.rings.iter().map(|r| r.pushed()).sum()
    }

    /// Total spans dropped across all rings (same-slot write races).
    pub fn spans_dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }
}

/// One node of a reassembled span tree.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// The span at this node.
    pub span: SpanRecord,
    /// Children, sorted by start time.
    pub children: Vec<TraceNode>,
}

/// Reassembles flat spans into a forest. Spans whose parent is missing
/// (aged out of its ring) surface as additional roots rather than being
/// dropped. Roots and children are sorted by start time.
pub fn build_tree(spans: &[SpanRecord]) -> Vec<TraceNode> {
    use std::collections::BTreeMap;
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut by_parent: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<SpanRecord> = Vec::new();
    for s in spans {
        if s.parent_span_id != 0 && ids.contains(&s.parent_span_id) {
            by_parent.entry(s.parent_span_id).or_default().push(*s);
        } else {
            roots.push(*s);
        }
    }
    fn attach(span: SpanRecord, by_parent: &BTreeMap<u64, Vec<SpanRecord>>) -> TraceNode {
        let mut children: Vec<TraceNode> = by_parent
            .get(&span.span_id)
            .map(|kids| kids.iter().map(|k| attach(*k, by_parent)).collect())
            .unwrap_or_default();
        children.sort_by_key(|c| (c.span.start_ns, c.span.span_id));
        TraceNode { span, children }
    }
    roots.sort_by_key(|r| (r.start_ns, r.span_id));
    roots.iter().map(|r| attach(*r, &by_parent)).collect()
}

/// Canonical structural signature of a span forest: kinds, nodes, and
/// nesting only — no ids or timings — so two backends can be compared
/// for structural identity.
///
/// Example: `cluster_predict@front(route@front,rpc_call@front(server_recv@2(node_predict@2)))`.
pub fn structure(forest: &[TraceNode]) -> String {
    fn node_label(n: u32) -> String {
        if n == FRONT_NODE {
            "front".to_string()
        } else {
            n.to_string()
        }
    }
    fn walk(node: &TraceNode, out: &mut String) {
        out.push_str(node.span.kind.as_str());
        out.push('@');
        out.push_str(&node_label(node.span.node));
        if !node.children.is_empty() {
            out.push('(');
            for (i, c) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                walk(c, out);
            }
            out.push(')');
        }
    }
    let mut out = String::new();
    for (i, r) in forest.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        walk(r, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace_id: u64, span_id: u64) -> TraceContext {
        TraceContext { trace_id, span_id, sampled: true }
    }

    #[test]
    fn ring_roundtrips_records() {
        let ring = SpanRing::new(64);
        let rec = SpanRecord {
            trace_id: 42,
            span_id: 7,
            parent_span_id: 3,
            kind: SpanKind::RpcCall,
            node: 2,
            status: SpanStatus::Error,
            start_ns: 100,
            end_ns: 250,
        };
        ring.push(&rec);
        let mut out = Vec::new();
        ring.collect(42, &mut out);
        assert_eq!(out, vec![rec]);
        assert_eq!(out[0].duration_ns(), 150);
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let ring = SpanRing::new(64);
        for i in 0..200u64 {
            ring.push(&SpanRecord {
                trace_id: i,
                span_id: i,
                parent_span_id: 0,
                kind: SpanKind::NodePredict,
                node: 0,
                status: SpanStatus::Ok,
                start_ns: i,
                end_ns: i + 1,
            });
        }
        let mut out = Vec::new();
        ring.scan(&mut out);
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|r| r.trace_id >= 136), "ring must retain the newest spans");
    }

    #[test]
    fn concurrent_ring_writes_never_tear() {
        let ring = std::sync::Arc::new(SpanRing::new(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // Every field derives from the trace_id, so a torn
                    // slot would produce an inconsistent record.
                    let id = t * 1_000_000 + i;
                    ring.push(&SpanRecord {
                        trace_id: id,
                        span_id: id + 1,
                        parent_span_id: id + 2,
                        kind: SpanKind::RpcCall,
                        node: (id % 7) as u32,
                        status: SpanStatus::Ok,
                        start_ns: id * 10,
                        end_ns: id * 10 + 5,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        ring.scan(&mut out);
        assert!(!out.is_empty());
        for r in &out {
            assert_eq!(r.span_id, r.trace_id + 1, "torn slot: {r:?}");
            assert_eq!(r.parent_span_id, r.trace_id + 2, "torn slot: {r:?}");
            assert_eq!(r.start_ns, r.trace_id * 10, "torn slot: {r:?}");
        }
    }

    #[test]
    fn head_sampling_cadence_is_deterministic() {
        let tracer = Tracer::new(
            1,
            TraceConfig { sample_one_in: 4, slow_threshold_ns: None, ..TraceConfig::default() },
        );
        let sampled: Vec<bool> = (0..8)
            .map(|_| tracer.ingress(SpanKind::ClusterPredict, FRONT_NODE).is_some())
            .collect();
        assert_eq!(sampled, [true, false, false, false, true, false, false, false]);
    }

    #[test]
    fn tail_mode_records_all_but_keeps_only_slow_or_head() {
        let tracer = Tracer::new(
            1,
            TraceConfig {
                sample_one_in: 0,           // head sampling off
                slow_threshold_ns: Some(0), // everything counts as slow
                ..TraceConfig::default()
            },
        );
        let root = tracer.ingress(SpanKind::ClusterObserve, FRONT_NODE).expect("tail mode records");
        let decision = tracer.end_root(root);
        assert!(decision.kept);
        assert_eq!(tracer.slow().len(), 1);

        let tracer = Tracer::new(
            1,
            TraceConfig {
                sample_one_in: 0,
                slow_threshold_ns: Some(u64::MAX), // nothing is slow
                ..TraceConfig::default()
            },
        );
        let root = tracer.ingress(SpanKind::ClusterObserve, FRONT_NODE).unwrap();
        let decision = tracer.end_root(root);
        assert!(!decision.kept, "fast + not head-sampled must not be kept");
        assert!(tracer.slow().is_empty());
        // ... but its spans are still in the ring and reassemblable.
        assert_eq!(tracer.collect(decision.trace_id).len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(tracer.ingress(SpanKind::RestRequest, FRONT_NODE).is_none());
        assert!(tracer.child(Some(&ctx(9, 1)), SpanKind::RpcCall, 0).is_none());
        tracer.record(Some(&ctx(9, 1)), SpanKind::WalFsync, 0, 0, 10);
        assert_eq!(tracer.spans_recorded(), 0);
    }

    #[test]
    fn tree_assembly_nests_and_orphans_surface() {
        let tracer = Tracer::new(2, TraceConfig::sample_all());
        let root = tracer.ingress(SpanKind::ClusterPredict, FRONT_NODE).unwrap();
        let rpc = tracer.child(Some(&root.ctx()), SpanKind::RpcCall, FRONT_NODE).unwrap();
        let srv = tracer.child(Some(&rpc.ctx()), SpanKind::ServerRecv, 1).unwrap();
        let work = tracer.child(Some(&srv.ctx()), SpanKind::NodePredict, 1).unwrap();
        tracer.finish(Some(work));
        tracer.finish(Some(srv));
        tracer.finish(Some(rpc));
        // An orphan: parent id that is not in the collected set.
        tracer.record(Some(&ctx(root.trace_id(), 0xdead_beef)), SpanKind::WalFsync, 0, 1, 2);
        let decision = tracer.end_root(root);
        let spans = tracer.collect(decision.trace_id);
        assert_eq!(spans.len(), 5);
        let forest = build_tree(&spans);
        assert_eq!(forest.len(), 2, "root + orphan");
        let sig = structure(&forest);
        assert!(
            sig.contains("cluster_predict@front(rpc_call@front(server_recv@1(node_predict@1)))"),
            "unexpected structure: {sig}"
        );
        assert!(sig.contains("wal_fsync@0"), "orphan must surface: {sig}");
    }

    #[test]
    fn kept_index_is_bounded() {
        let tracer = Tracer::new(1, TraceConfig::sample_all());
        for _ in 0..KEPT_CAPACITY + 10 {
            let root = tracer.ingress(SpanKind::RestRequest, FRONT_NODE).unwrap();
            tracer.end_root(root);
        }
        assert_eq!(tracer.kept().len(), KEPT_CAPACITY);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let tracer = Tracer::new(1, TraceConfig::sample_all());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let root = tracer.ingress(SpanKind::RestRequest, FRONT_NODE).unwrap();
            assert_ne!(root.trace_id(), 0);
            assert!(seen.insert(root.trace_id()), "duplicate trace id");
        }
    }
}
