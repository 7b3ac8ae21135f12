//! Harness-side spans: recorded around the calls into each layer, kept in
//! memory, written out once when the run ends.
//!
//! These are the benchmark's own spans (name, start, end, parent, op id).
//! Spans the program records itself (`velox::obs`) are imported into the
//! same shape so one file shows a request from the HTTP call down to the
//! replica's apply.

use std::time::Instant;

use velox::rest::json::Json;

/// Spans one lane keeps before counting further ones as dropped: bounds
/// memory and the trace file on the high-rate workloads.
pub const SPAN_CAP: usize = 100_000;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `linalg.dot`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Id unique within the lane (1-based).
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// The op this span belongs to; spans of one request share it.
    pub op: u64,
}

/// One lane's span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    lane: usize,
    spans: Vec<Span>,
    next_id: u32,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer for `lane`, timing against `epoch`.
    pub fn new(epoch: Instant, lane: usize) -> Self {
        SpanBuf { epoch, lane, spans: Vec::with_capacity(SPAN_CAP), next_id: 1, dropped: 0 }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span { name, start_ns, end_ns, id, parent, op });
        } else {
            self.dropped += 1;
        }
        id
    }

    /// Times `f` as a child span of `parent`; returns its result, the
    /// span's duration in nanoseconds and the span's id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let id = self.push(name, start, end, parent, op);
        (out, end - start, id)
    }

    /// Spans recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Renders every lane's spans as one JSON document.
pub fn to_json(workload: &str, lanes: &[SpanBuf]) -> Json {
    let spans: Vec<Json> = lanes
        .iter()
        .flat_map(|buf| {
            buf.spans.iter().map(|s| {
                Json::object(vec![
                    ("name", Json::String(s.name.to_string())),
                    ("lane", Json::Number(buf.lane as f64)),
                    ("id", Json::Number(s.id as f64)),
                    ("parent", Json::Number(s.parent as f64)),
                    ("op", Json::Number(s.op as f64)),
                    ("start_ns", Json::Number(s.start_ns as f64)),
                    ("end_ns", Json::Number(s.end_ns as f64)),
                ])
            })
        })
        .collect();
    Json::object(vec![
        ("workload", Json::String(workload.to_string())),
        ("dropped", Json::Number(lanes.iter().map(|b| b.dropped).sum::<u64>() as f64)),
        ("spans", Json::Array(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_a_child_and_returns_its_duration() {
        let mut buf = SpanBuf::new(Instant::now(), 1);
        let (v, ns, id) = buf.time("x", 0, 1, || 41 + 1);
        assert_eq!((v, id), (42, 1));
        let s = &buf.spans()[0];
        assert_eq!(s.end_ns - s.start_ns, ns);
        let doc = to_json("w", &[buf]);
        assert_eq!(doc.get("spans").and_then(Json::as_array).map(|a| a.len()), Some(1));
    }
}
