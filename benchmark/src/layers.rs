//! Per-layer samples gathered by the traced run: each lane times calls
//! into the system's public layer functions (on inputs taken from the op
//! it just executed) and files the duration under the layer metric's name.

use std::time::Instant;

use crate::contract::PER_LAYER;
use crate::result::WorkloadResult;
use crate::span::SpanBuf;
use crate::stats::{percentile_of, Pick, Summary};

/// Nanosecond-scale functions are called this many times inside one span
/// so the clock reads do not dominate; the sample is the per-call mean.
pub const FAST_REPS: u32 = 16;

/// Samples by metric name, in the metric's own unit.
#[derive(Debug, Default)]
pub struct LayerSamples {
    rows: Vec<(&'static str, Vec<f64>)>,
}

impl LayerSamples {
    /// Files one sample under `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.rows.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.rows.push((name, vec![value])),
        }
    }

    /// Moves another lane's samples into this one.
    pub fn merge(&mut self, other: LayerSamples) {
        for (name, values) in other.rows {
            match self.rows.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.extend(values),
                None => self.rows.push((name, values)),
            }
        }
    }

    /// Percentile `q` of a row with its sample count; `None` when empty.
    pub fn quantile(&mut self, name: &str, q: f64) -> Option<(f64, usize)> {
        let (_, values) = self.rows.iter_mut().find(|(n, _)| *n == name)?;
        let n = values.len();
        percentile_of(values, q).map(|v| (v, n))
    }

    /// Median of a row; `None` when empty.
    pub fn p50(&mut self, name: &str) -> Option<(f64, usize)> {
        self.quantile(name, 0.5)
    }

    /// Files the median of every row that is a contract metric under its
    /// name and unit. Rows under other names are working values.
    pub fn file_into(&mut self, out: &mut WorkloadResult) {
        for (name, values) in &mut self.rows {
            let n = values.len();
            if let (Some(p50), Some(spec)) =
                (percentile_of(values, 0.5), PER_LAYER.iter().find(|m| m.name == *name))
            {
                out.set_summary(name, spec.unit, Summary::of(&[p50], n, Pick::Low));
            }
        }
    }
}

/// What one traced lane carries: its span buffer, its layer samples and a
/// count of ops seen (every `replay_every`-th is replayed layer by layer).
#[derive(Debug)]
pub struct LaneTrace {
    /// Harness spans.
    pub spans: SpanBuf,
    /// Layer samples.
    pub layers: LayerSamples,
    /// Ops executed so far on this lane.
    pub ops: u64,
    /// Replay interval, chosen per workload so a lane replays a few
    /// thousand ops a second whatever its request rate.
    replay_every: u64,
}

impl LaneTrace {
    /// A fresh trace for `lane`.
    pub fn new(epoch: Instant, lane: usize, replay_every: u64) -> Self {
        LaneTrace {
            spans: SpanBuf::new(epoch, lane),
            layers: LayerSamples::default(),
            ops: 0,
            replay_every,
        }
    }

    /// Counts one op and says whether it is due for replay.
    pub fn next_op(&mut self) -> bool {
        self.ops += 1;
        self.ops.is_multiple_of(self.replay_every)
    }

    /// Op id unique across lanes: lane in the top bits.
    pub fn op_id(&self, lane: usize) -> u64 {
        ((lane as u64) << 48) | self.ops
    }

    /// Times `reps` calls of `f` as one child span named after `metric`
    /// and files the per-call time under it, in the unit the contract gives
    /// that metric (`ns` or `us`).
    pub fn probe<R>(
        &mut self,
        metric: &'static str,
        reps: u32,
        parent: u32,
        op: u64,
        mut f: impl FnMut() -> R,
    ) {
        let ((), ns, _) = self.spans.time(metric, parent, op, || {
            for _ in 0..reps {
                std::hint::black_box(f());
            }
        });
        let micros = PER_LAYER.iter().any(|m| m.name == metric && m.unit == "us");
        let per_call = ns as f64 / reps as f64;
        self.layers.push(metric, if micros { per_call / 1e3 } else { per_call });
    }
}

/// Merges every lane's layer samples.
pub fn merge_layers(lanes: &mut [LaneTrace]) -> LayerSamples {
    let mut all = LayerSamples::default();
    for lane in lanes {
        all.merge(std::mem::take(&mut lane.layers));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_files_the_per_call_time_and_a_span() {
        let mut t = LaneTrace::new(Instant::now(), 1, 2);
        t.probe("linalg.dot_ns.d50", 4, 0, t.op_id(1), || 2 + 2);
        t.probe("linalg.sm_update_us.d50", 1, 0, t.op_id(1), || 2 + 2);
        let spans = t.spans.spans().to_vec();
        assert_eq!(spans.len(), 2);
        let (ns, n) = t.layers.p50("linalg.dot_ns.d50").unwrap();
        assert_eq!(n, 1);
        assert_eq!(ns, (spans[0].end_ns - spans[0].start_ns) as f64 / 4.0);
        let (us, _) = t.layers.p50("linalg.sm_update_us.d50").unwrap();
        assert_eq!(us, (spans[1].end_ns - spans[1].start_ns) as f64 / 1e3);
        assert!(t.layers.p50("missing").is_none());
    }

    #[test]
    fn merge_concatenates_rows() {
        let mut a = LayerSamples::default();
        a.push("x", 1.0);
        let mut b = LayerSamples::default();
        b.push("x", 3.0);
        b.push("y", 9.0);
        a.merge(b);
        assert_eq!(a.p50("x"), Some((2.0, 2)));
        assert_eq!(a.p50("y"), Some((9.0, 1)));
        a.push("rest.json_parse_ns", 7.0);
        let mut out = WorkloadResult::new("w", 1, 1, true);
        a.file_into(&mut out);
        assert_eq!(out.get("rest.json_parse_ns"), Some(7.0));
        assert_eq!(out.get("x"), None, "working rows are not metrics");
    }
}
