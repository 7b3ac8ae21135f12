//! The load generators: a closed loop (each thread sends its next request
//! when the previous one completes) and an open loop (requests are due on a
//! fixed schedule whether or not the system keeps up).
//!
//! Both run at most [`MAX_LANES`] generator threads — the box has two
//! cores, and a generator that outnumbers them measures the scheduler.

use std::time::{Duration, Instant};

use crate::gen::{Op, OpKind, OpStream};
use crate::stats::{Pick, Samples, Summary, SLICES};

/// Generator threads / connections per phase.
pub const MAX_LANES: usize = 2;

/// What executing one op yields: the score (folded into the checksum of
/// verification passes) or a failure.
pub type OpResult = Result<f64, String>;

/// One lane's measurements over a timed phase.
#[derive(Debug, Default)]
pub struct LaneResult {
    /// Latency per op kind, nanoseconds.
    pub latency: [Samples; 3],
    /// Ops completed per slice (all kinds).
    pub completed: [u64; SLICES],
    /// Ops issued in the measured window.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Open loop only: how late each op started after its due time, ns.
    pub lateness: Samples,
    /// Open loop only: ops that failed or took longer than the SLO from
    /// their due time.
    pub slo_misses: u64,
    /// First failure message, for the report.
    pub first_error: Option<String>,
    /// Times the op array wrapped around (closed loop).
    pub wraps: u64,
}

impl LaneResult {
    fn with_capacity(n: usize) -> Self {
        LaneResult {
            latency: [
                Samples::with_capacity(n),
                Samples::with_capacity(n / 2),
                Samples::with_capacity(n / 4),
            ],
            ..Default::default()
        }
    }

    fn note(&mut self, result: &OpResult) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }
}

/// The lanes of one phase plus its measured length.
#[derive(Debug)]
pub struct PhaseResult {
    /// One entry per generator thread.
    pub lanes: Vec<LaneResult>,
    /// Measured window, seconds.
    pub seconds: f64,
}

impl PhaseResult {
    /// Ops issued.
    pub fn attempted(&self) -> u64 {
        self.lanes.iter().map(|l| l.attempted).sum()
    }

    /// Ops failed.
    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }

    /// SLO misses (open loop).
    pub fn slo_misses(&self) -> u64 {
        self.lanes.iter().map(|l| l.slo_misses).sum()
    }

    /// The first failure any lane saw.
    pub fn first_error(&self) -> Option<&str> {
        self.lanes.iter().find_map(|l| l.first_error.as_deref())
    }

    /// Every lane's samples of one kind.
    pub fn samples(&self, kind: OpKind) -> Vec<&Samples> {
        self.lanes.iter().map(|l| &l.latency[kind.index()]).collect()
    }

    /// Requests per second: the fast-decile slice's completion rate.
    pub fn req_per_s(&self) -> Option<Summary> {
        let slice_s = self.seconds / SLICES as f64;
        let rates: Vec<f64> = (0..SLICES)
            .map(|k| self.lanes.iter().map(|l| l.completed[k]).sum::<u64>() as f64 / slice_s)
            .collect();
        let n = rates.iter().map(|r| (r * slice_s) as usize).sum();
        Summary::of(&rates, n, Pick::High)
    }
}

fn slice_of(elapsed: Duration, window: Duration) -> usize {
    ((elapsed.as_nanos() * SLICES as u128 / window.as_nanos().max(1)) as usize).min(SLICES - 1)
}

/// Runs one closed-loop thread per stream for `warmup + measure`. Ops
/// completing during warm-up are executed but not recorded. `exec(lane)`
/// builds each thread's executor; `ctx[lane]` is handed to it on every op
/// (the traced run keeps its spans there, the untraced run passes `()`).
pub fn closed_loop<C, E>(
    streams: &[OpStream],
    warmup: Duration,
    measure: Duration,
    expected_ops_per_lane: usize,
    ctx: &mut [C],
    exec: impl Fn(usize) -> E,
) -> PhaseResult
where
    C: Send,
    E: FnMut(&Op, &OpStream, &mut C) -> OpResult + Send,
{
    assert!(streams.len() <= MAX_LANES, "at most {MAX_LANES} generator threads");
    assert_eq!(streams.len(), ctx.len());
    let start = Instant::now();
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(ctx.iter_mut())
            .enumerate()
            .map(|(lane, (stream, ctx))| {
                let mut run = exec(lane);
                scope.spawn(move || {
                    let mut out = LaneResult::with_capacity(expected_ops_per_lane);
                    let measure_from = start + warmup;
                    let end = measure_from + measure;
                    let mut i = 0usize;
                    let mut before = Instant::now();
                    loop {
                        if i == stream.ops.len() {
                            i = 0;
                            out.wraps += 1;
                        }
                        let op = &stream.ops[i];
                        i += 1;
                        let result = run(op, stream, ctx);
                        let after = Instant::now();
                        if after >= end {
                            break;
                        }
                        if before >= measure_from {
                            let k = slice_of(after - measure_from, measure);
                            let ns = (after - before).as_nanos() as u64;
                            out.latency[op.kind.index()].record(k, ns);
                            out.completed[k] += 1;
                            out.note(&result);
                        }
                        std::hint::black_box(&result);
                        before = after;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    PhaseResult { lanes, seconds: measure.as_secs_f64() }
}

/// A monotonic nanosecond clock the open loop can wait on. The wall clock
/// drives real runs; tests substitute a scripted one.
pub trait Clock {
    /// Nanoseconds since the phase started.
    fn now_ns(&mut self) -> u64;
    /// Blocks until `now_ns() >= deadline_ns` (returns at once if past).
    fn wait_until(&mut self, deadline_ns: u64);
}

/// The wall clock: sleeps to just short of the deadline, then spins, so a
/// 50 µs timer slack does not become 50 µs of latency on every op.
pub struct WallClock(pub Instant);

/// How long before a deadline the wall clock stops sleeping and spins.
const SPIN_WINDOW_NS: u64 = 120_000;

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            let left = deadline_ns - now;
            if left > SPIN_WINDOW_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_WINDOW_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The fixed-rate schedule of one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopPlan {
    /// Total request rate across lanes.
    pub rate_per_s: f64,
    /// Generator lanes; lane `l` sends global ops `l, l + lanes, …`.
    pub lanes: usize,
    /// Phase length.
    pub duration_ns: u64,
    /// Latency limit from the due time.
    pub slo_ns: u64,
}

impl OpenLoopPlan {
    /// When the `i`-th op of `lane` is due, from phase start.
    pub fn due_ns(&self, lane: usize, i: u64) -> u64 {
        let global = i * self.lanes as u64 + lane as u64;
        (global as f64 * 1e9 / self.rate_per_s) as u64
    }
}

/// Runs one open-loop lane to the end of its schedule. Every op is timed
/// **from its due time**: when the lane is still busy with an earlier op
/// the wait counts against the later one, exactly as a user would see it.
pub fn open_loop_lane(
    clock: &mut impl Clock,
    plan: &OpenLoopPlan,
    lane: usize,
    stream: &OpStream,
    mut exec: impl FnMut(&Op, &OpStream) -> OpResult,
) -> LaneResult {
    let expected = (plan.rate_per_s * plan.duration_ns as f64 / 1e9) as usize / plan.lanes + 1;
    let mut out = LaneResult::with_capacity(expected);
    out.lateness = Samples::with_capacity(expected);
    for i in 0u64.. {
        let due = plan.due_ns(lane, i);
        if due >= plan.duration_ns {
            break;
        }
        clock.wait_until(due);
        let started = clock.now_ns();
        let op = &stream.ops[i as usize % stream.ops.len()];
        let result = exec(op, stream);
        let done = clock.now_ns();
        let k =
            ((due as u128 * SLICES as u128 / plan.duration_ns as u128) as usize).min(SLICES - 1);
        let latency = done.saturating_sub(due);
        out.latency[op.kind.index()].record(k, latency);
        out.lateness.record(k, started.saturating_sub(due));
        out.completed[k] += 1;
        out.note(&result);
        if result.is_err() || latency > plan.slo_ns {
            out.slo_misses += 1;
        }
    }
    out
}

/// Runs every lane of an open-loop phase on its own thread against the
/// wall clock.
pub fn open_loop<E>(
    streams: &[OpStream],
    plan: &OpenLoopPlan,
    exec: impl Fn(usize) -> E,
) -> PhaseResult
where
    E: FnMut(&Op, &OpStream) -> OpResult + Send,
{
    assert!(streams.len() == plan.lanes && plan.lanes <= MAX_LANES);
    let start = Instant::now();
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(lane, stream)| {
                let run = exec(lane);
                scope.spawn(move || open_loop_lane(&mut WallClock(start), plan, lane, stream, run))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    PhaseResult { lanes, seconds: plan.duration_ns as f64 / 1e9 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, ItemDist, Mix};

    /// A clock that only moves when told to: `wait_until` jumps to the
    /// deadline, and each executed op advances it by a scripted service
    /// time.
    struct Scripted {
        now: u64,
    }

    impl Clock for Scripted {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn wait_until(&mut self, deadline_ns: u64) {
            self.now = self.now.max(deadline_ns);
        }
    }

    fn stream(n: usize) -> OpStream {
        let mix = Mix {
            users: 4,
            items: ItemDist::Uniform(8),
            observe_pct: 0,
            topk_pct: 0,
            topk_candidates: 1,
            hot_pairs: 0,
        };
        generate(&mix, n, 1, 0)
    }

    #[test]
    fn due_times_interleave_lanes_at_the_total_rate() {
        let plan = OpenLoopPlan {
            rate_per_s: 1000.0,
            lanes: 2,
            duration_ns: 10_000_000,
            slo_ns: 5_000_000,
        };
        assert_eq!(plan.due_ns(0, 0), 0);
        assert_eq!(plan.due_ns(1, 0), 1_000_000);
        assert_eq!(plan.due_ns(0, 1), 2_000_000);
        assert_eq!(plan.due_ns(1, 4), 9_000_000);
    }

    #[test]
    fn a_stall_is_charged_to_the_ops_queued_behind_it() {
        // One lane, one op per ms, 10 ms. Service takes 0.1 ms except the
        // third op, which stalls 3.5 ms: ops 3–5 start late and their
        // latency, measured from the due time, includes the wait.
        let plan = OpenLoopPlan {
            rate_per_s: 1000.0,
            lanes: 1,
            duration_ns: 10_000_000,
            slo_ns: 2_000_000,
        };
        let s = stream(10);
        let clock = std::cell::RefCell::new(Scripted { now: 0 });
        let mut n = 0u64;
        // The clock is shared with the executor so service time passes.
        struct Shared<'a>(&'a std::cell::RefCell<Scripted>);
        impl Clock for Shared<'_> {
            fn now_ns(&mut self) -> u64 {
                self.0.borrow_mut().now_ns()
            }
            fn wait_until(&mut self, d: u64) {
                self.0.borrow_mut().wait_until(d)
            }
        }
        let out = open_loop_lane(&mut Shared(&clock), &plan, 0, &s, |_, _| {
            clock.borrow_mut().now += if n == 2 { 3_500_000 } else { 100_000 };
            n += 1;
            Ok(0.0)
        });
        assert_eq!(out.attempted, 10);
        assert_eq!(out.failed, 0);
        let lat = out.latency[OpKind::Predict.index()].all();
        let late = out.lateness.all();
        assert_eq!(lat[0], 100_000);
        assert_eq!(late[0], 0);
        assert_eq!(lat[2], 3_500_000, "the stalled op itself");
        // Op 3 was due at 3 ms but the lane was busy until 5.5 ms.
        assert_eq!(late[3], 2_500_000);
        assert_eq!(lat[3], 2_600_000);
        assert_eq!(late[4], 1_600_000);
        assert_eq!(late[5], 700_000);
        assert_eq!(late[6], 0, "the backlog has drained");
        // Ops 2 and 3 exceed the 2 ms limit from their due time.
        assert_eq!(out.slo_misses, 2);
    }

    #[test]
    fn failures_count_as_slo_misses() {
        let plan = OpenLoopPlan {
            rate_per_s: 1000.0,
            lanes: 1,
            duration_ns: 4_000_000,
            slo_ns: 5_000_000,
        };
        let s = stream(4);
        let mut n = 0;
        let out = open_loop_lane(&mut Scripted { now: 0 }, &plan, 0, &s, |_, _| {
            n += 1;
            if n == 2 {
                Err("refused".into())
            } else {
                Ok(1.0)
            }
        });
        assert_eq!((out.attempted, out.failed, out.slo_misses), (4, 1, 1));
        assert_eq!(out.first_error.as_deref(), Some("refused"));
    }

    #[test]
    fn closed_loop_discards_warmup_and_counts_every_measured_op() {
        let s = [stream(64), stream(64)];
        let out = closed_loop(
            &s,
            Duration::from_millis(20),
            Duration::from_millis(100),
            1 << 16,
            &mut [(), ()],
            |_| |_: &Op, _: &OpStream, _: &mut ()| -> OpResult { Ok(1.0) },
        );
        assert_eq!(out.lanes.len(), 2);
        let recorded: usize = out.samples(OpKind::Predict).iter().map(|s| s.len()).sum();
        assert_eq!(recorded as u64, out.attempted());
        assert!(out.attempted() > 1000);
        assert_eq!(out.failed(), 0);
        let rate = out.req_per_s().unwrap();
        assert!(rate.value > 10_000.0);
    }
}
