//! Cheap span timers for hot paths: two monotonic clock reads per span
//! (~130 ns on the predict path), nanosecond-accurate samples.

use std::time::Instant;

use crate::Histogram;

/// An explicit stopwatch: start it, then record the elapsed nanoseconds
/// into a histogram (or just read them). Two monotonic clock reads total.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Self {
        Timer { start: Instant::now() }
    }

    /// Nanoseconds elapsed since `start()`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records the elapsed time into `hist` and returns it (ns).
    #[inline]
    pub fn observe(&self, hist: &Histogram) -> u64 {
        let ns = self.elapsed_ns();
        hist.record(ns);
        ns
    }
}

/// A guard that records the span from its creation to its drop into a
/// histogram. Created by [`Histogram::span`] or [`time_scope!`].
///
/// Because recording happens in `Drop`, every exit path of the enclosing
/// scope — early returns, `?`, panics during unwinding — is measured.
///
/// [`time_scope!`]: crate::time_scope
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts a span recording into `hist` on drop.
    #[inline]
    pub fn new(hist: &'a Histogram) -> Self {
        SpanTimer { hist, start: Instant::now() }
    }
}

impl Drop for SpanTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Times the rest of the enclosing scope into a [`Histogram`]:
///
/// ```
/// use velox_obs::{time_scope, Histogram};
/// let hist = Histogram::new();
/// {
///     time_scope!(hist);
///     // ... work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[macro_export]
macro_rules! time_scope {
    ($hist:expr) => {
        let _velox_obs_span = $crate::SpanTimer::new(&$hist);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_elapsed() {
        let h = Histogram::new();
        let t = Timer::start();
        std::hint::black_box(1 + 1);
        let ns = t.observe(&h);
        assert_eq!(h.count(), 1);
        assert_eq!(h.snapshot().max, ns);
    }

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _span = h.span();
            assert_eq!(h.count(), 0, "nothing recorded until drop");
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn time_scope_records_every_exit_path() {
        let h = Histogram::new();
        fn early_return(h: &Histogram, flag: bool) -> u32 {
            time_scope!(*h);
            if flag {
                return 1;
            }
            2
        }
        early_return(&h, true);
        early_return(&h, false);
        assert_eq!(h.count(), 2);
    }
}
