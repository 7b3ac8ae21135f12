//! Latency bookkeeping: raw nanosecond samples cut into time slices,
//! percentiles, and the fast-decile summary every reported number is.
//!
//! A timed phase is cut into [`SLICES`] equal time slices and each slice
//! gets its own percentile. The reported number is the **fast-decile
//! slice** ([`Pick`]): the 10th-percentile slice of a latency, the
//! 90th-percentile slice of a rate. On a shared box interference only ever
//! slows a slice down — a pure CPU loop here varies ±17 % run to run at its
//! median and ±3 % at its fast tail — so the fast tail is what repeats,
//! while a regression in the code slows every slice, the fast ones too.
//! The decile rather than the single best slice, which is too lucky. How
//! far the fast quartile lies from the fast decile is the run's own noise
//! estimate: a flat fast tail means many slices agree on the value. A
//! workload with many short slices may read a deeper tail ([`Summary::at`]).

/// Time slices per measured phase.
pub const SLICES: usize = 20;

/// A slice needs this many samples for its percentile to count.
const MIN_SLICE_SAMPLES: usize = 20;

/// Latency samples of one op kind on one thread, in completion order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u32>,
    /// `cuts[k]` is the index of the first sample of slice `k + 1`.
    cuts: Vec<usize>,
}

impl Samples {
    /// Pre-sized so the timed phase does not reallocate.
    pub fn with_capacity(n: usize) -> Self {
        Samples { ns: Vec::with_capacity(n), cuts: Vec::with_capacity(SLICES) }
    }

    /// Records one latency in `slice` (slices must not decrease).
    /// Latencies saturate at `u32::MAX` ns ≈ 4.29 s.
    pub fn record(&mut self, slice: usize, ns: u64) {
        while self.cuts.len() < slice {
            self.cuts.push(self.ns.len());
        }
        self.ns.push(ns.min(u32::MAX as u64) as u32);
    }

    /// Total samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// All samples, in completion order.
    pub fn all(&self) -> &[u32] {
        &self.ns
    }

    /// The samples of slice `k`.
    pub fn slice(&self, k: usize) -> &[u32] {
        let start = if k == 0 { 0 } else { self.cuts.get(k - 1).copied().unwrap_or(self.ns.len()) };
        let end = self.cuts.get(k).copied().unwrap_or(self.ns.len());
        &self.ns[start..end]
    }
}

/// Linear-interpolated percentile `q ∈ [0, 1]` of ascending `sorted`.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo].into() * (1.0 - frac) + sorted[hi].into() * frac
}

/// Which end of the per-slice values is the fast one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Smaller is faster (times): report the 10th-percentile slice.
    Low,
    /// Larger is faster (rates): report the 90th-percentile slice.
    High,
}

/// A reported number: the value, the run's own noise estimate for it, and
/// the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The fast-tail slice: the fast decile (see [`Pick`]) unless
    /// [`Summary::at`] was given a deeper tail.
    pub value: f64,
    /// Distance from there to the quantile two and a half times as deep (the
    /// fast quartile, for the decile), as a share of `value`: how steep the
    /// fast tail is.
    pub spread: f64,
    /// Samples across all slices.
    pub n: usize,
    /// The per-slice (or per-repetition) values behind `value`.
    pub slices: Vec<f64>,
}

/// The fast tail every figure but workload 3's is read at: the decile.
pub const DECILE: f64 = 0.10;

impl Summary {
    /// Summarises per-slice (or per-repetition) values at the fast decile.
    pub fn of(values: &[f64], n: usize, pick: Pick) -> Option<Summary> {
        Summary::at(values, n, pick, DECILE)
    }

    /// Summarises values at the fast `tail` quantile (0.10 for the decile):
    /// `value` is that quantile counted from the fast end, `spread` how far
    /// the quantile two and a half times as deep lies from it.
    pub fn at(values: &[f64], n: usize, pick: Pick, tail: f64) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let from_fast_end = |q: f64| match pick {
            Pick::Low => percentile(&sorted, q),
            Pick::High => percentile(&sorted, 1.0 - q),
        };
        let value = from_fast_end(tail);
        let spread =
            if value == 0.0 { 0.0 } else { ((from_fast_end(2.5 * tail) - value) / value).abs() };
        Some(Summary { value, spread, n, slices: values.to_vec() })
    }

    /// One summary over the slices of several phases that measured the same
    /// thing (on separate deployments, say): the fast decile of all of them.
    pub fn pool(parts: impl IntoIterator<Item = Option<Summary>>, pick: Pick) -> Option<Summary> {
        Summary::pool_at(parts, pick, DECILE)
    }

    /// [`Summary::pool`] read at the fast `tail` quantile.
    pub fn pool_at(
        parts: impl IntoIterator<Item = Option<Summary>>,
        pick: Pick,
        tail: f64,
    ) -> Option<Summary> {
        let (mut slices, mut n) = (Vec::new(), 0);
        for part in parts.into_iter().flatten() {
            slices.extend(part.slices);
            n += part.n;
        }
        Summary::at(&slices, n, pick, tail)
    }
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Percentile `q` of one op kind across threads: per slice, merge every
/// thread's samples and take the percentile; report the fast-decile slice.
/// `scale` converts nanoseconds to the reported unit (1e-3 for µs).
pub fn sliced_percentile(threads: &[&Samples], q: f64, scale: f64) -> Option<Summary> {
    let mut per_slice = Vec::with_capacity(SLICES);
    let mut merged: Vec<u32> = Vec::new();
    for k in 0..SLICES {
        merged.clear();
        for t in threads {
            merged.extend_from_slice(t.slice(k));
        }
        if merged.len() >= MIN_SLICE_SAMPLES {
            merged.sort_unstable();
            per_slice.push(percentile(&merged, q) * scale);
        }
    }
    if per_slice.is_empty() {
        // Too few samples to slice.
        return phase_percentile(threads, q, scale);
    }
    Summary::of(&per_slice, threads.iter().map(|t| t.len()).sum(), Pick::Low)
}

/// Percentile `q` of one op kind across threads over the whole phase: one
/// value. What a phase too short to slice reports, and what a p99 is taken
/// over when a slice holds too few samples for one.
pub fn phase_percentile(threads: &[&Samples], q: f64, scale: f64) -> Option<Summary> {
    let mut merged: Vec<u32> = threads.iter().flat_map(|t| t.all()).copied().collect();
    if merged.is_empty() {
        return None;
    }
    merged.sort_unstable();
    Summary::of(&[percentile(&merged, q) * scale], merged.len(), Pick::Low)
}

/// Percentile `q` of plain `f64` samples (sorted in place).
pub fn percentile_of(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(percentile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert!((percentile(&v, 0.99) - 39.7).abs() < 1e-9);
        assert_eq!(percentile(&[7u32], 0.99), 7.0);
    }

    #[test]
    fn samples_are_cut_into_slices() {
        let mut s = Samples::with_capacity(16);
        s.record(0, 5);
        s.record(0, 6);
        s.record(2, 7); // slice 1 stays empty
        s.record(2, u64::MAX); // saturates
        assert_eq!(s.slice(0), &[5, 6]);
        assert!(s.slice(1).is_empty());
        assert_eq!(s.slice(2), &[7, u32::MAX]);
        assert!(s.slice(3).is_empty());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn sliced_percentile_is_the_fast_decile_slice_and_ignores_stalls() {
        let mut a = Samples::with_capacity(SLICES * 100);
        for k in 0..SLICES {
            for i in 0..100u64 {
                // A third of the slices are stalled 100x; the rest sit at
                // 1000..1099 ns.
                let base = if k % 3 == 0 { 100_000 } else { 1000 };
                a.record(k, base + i);
            }
        }
        let p50 = sliced_percentile(&[&a], 0.5, 1e-3).unwrap();
        assert!((p50.value - 1.0495).abs() < 1e-6, "fast-decile slice p50 {}", p50.value);
        assert_eq!(p50.n, SLICES * 100);
        assert!(p50.spread < 0.01, "two thirds of the slices agree: a flat fast tail");
        assert_eq!(p50.slices.len(), SLICES);
    }

    #[test]
    fn pool_summarises_every_parts_slices_together() {
        let a = Summary::of(&[10.0, 11.0], 5, Pick::Low);
        let b = Summary::of(&[1.0, 2.0], 7, Pick::Low);
        let pooled = Summary::pool([a, None, b], Pick::Low).unwrap();
        assert_eq!(pooled.n, 12);
        assert_eq!(pooled.slices.len(), 4);
        assert!(pooled.value < 2.0);
        assert!(Summary::pool([None, None], Pick::High).is_none());
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
    }

    #[test]
    fn pick_takes_the_fast_end_of_either_direction() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let low = Summary::of(&v, 11, Pick::Low).unwrap();
        assert_eq!((low.value, low.spread), (2.0, 0.75), "decile 2, quartile 3.5");
        let high = Summary::of(&v, 11, Pick::High).unwrap();
        assert_eq!((high.value, high.spread), (10.0, 0.15), "decile 10, quartile 8.5");
        assert!(Summary::of(&[], 0, Pick::Low).is_none());
        // A deeper tail: the 2nd percentile of 1..=101 is 3, the 5th is 6.
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        let deep = Summary::at(&v, 101, Pick::Low, 0.02).unwrap();
        assert_eq!((deep.value, deep.spread), (3.0, 1.0));
        let deep = Summary::at(&v, 101, Pick::High, 0.02).unwrap();
        assert_eq!(deep.value, 99.0);
    }

    #[test]
    fn sliced_percentile_merges_threads_and_falls_back_when_sparse() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        for i in 0..5u64 {
            a.record(0, 100 + i);
            b.record(0, 200 + i);
        }
        let s = sliced_percentile(&[&a, &b], 0.5, 1.0).unwrap();
        assert_eq!(s.n, 10);
        assert!((s.value - 152.0).abs() < 1e-9);
        assert!(sliced_percentile(&[&Samples::default()], 0.5, 1.0).is_none());
    }
}
