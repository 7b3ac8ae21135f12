//! The estimator behind a `--smoke` gate: time slices, their fast decile,
//! and a three-way verdict that says so when one run cannot decide.
//!
//! A timed phase is cut into [`SLICES`] equal time slices and each slice
//! gets one value (the median of its samples). The reading is the
//! **fast-decile slice** — the 10th-percentile slice value. On a shared box
//! interference only ever slows a slice down, so the fast tail is what
//! repeats run to run, while a regression in the code moves every slice,
//! the fast ones too. How far the fast quartile lies from the fast decile
//! is the run's own noise estimate. A slice with fewer than
//! [`MIN_SLICE_SAMPLES`] samples (the box stalled through it) has no value.
//!
//! A gate compares the reading against a threshold: the decile at or above
//! it is a [`Verdict::Fail`], the quartile below it a [`Verdict::Pass`],
//! and a decile-to-quartile spread that straddles it is
//! [`Verdict::Unresolved`] — this run is too noisy to tell, which is
//! reported loudly rather than guessed.

/// Time slices per gated phase.
pub const SLICES: usize = 20;

/// A slice needs this many samples for its median to count.
pub const MIN_SLICE_SAMPLES: usize = 20;

/// The fast tail a gate reads.
const DECILE: f64 = 0.10;
/// The quantile two and a half times as deep: the far end of the spread.
const QUARTILE: f64 = 0.25;

/// One gated quantity over a sliced phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReading {
    /// The fast-decile slice value.
    pub decile: f64,
    /// The fast-quartile slice value; `quartile - decile` is the spread.
    pub quartile: f64,
    /// Per-slice medians, in time order (stalled slices left out).
    pub slices: Vec<f64>,
}

/// What a gate concluded from one run, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The whole fast tail sits below the threshold.
    Pass,
    /// The run's spread straddles the threshold: it cannot tell.
    Unresolved,
    /// Even the fast-decile slice reaches the threshold.
    Fail,
}

impl Verdict {
    /// The label `scripts/verify.sh` collects: `PASS`, `UNRESOLVED` or
    /// `FAIL`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Fail => "FAIL",
        }
    }
}

impl SliceReading {
    /// Cuts `samples` — `(seconds since the phase started, value)` — into
    /// [`SLICES`] equal slices of `phase_s` seconds and reads their
    /// medians at the fast decile. `None` when no slice holds enough
    /// samples.
    pub fn of(samples: &[(f64, f64)], phase_s: f64) -> Option<SliceReading> {
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for &(at, value) in samples {
            let k = ((at / phase_s) * SLICES as f64) as usize;
            per_slice[k.min(SLICES - 1)].push(value);
        }
        let slices: Vec<f64> = per_slice
            .into_iter()
            .filter(|s| s.len() >= MIN_SLICE_SAMPLES)
            .map(|mut s| quantile(&mut s, 0.5))
            .collect();
        if slices.is_empty() {
            return None;
        }
        let mut sorted = slices.clone();
        Some(SliceReading {
            decile: quantile(&mut sorted, DECILE),
            quartile: quantile(&mut sorted, QUARTILE),
            slices,
        })
    }

    /// Judges the reading against `threshold` (see the module docs).
    pub fn judge(&self, threshold: f64) -> Verdict {
        if self.decile >= threshold {
            Verdict::Fail
        } else if self.quartile >= threshold {
            Verdict::Unresolved
        } else {
            Verdict::Pass
        }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `per_slice` samples in each of the [`SLICES`] slices of a 1 s
    /// phase, slice `k` valued `value(k, i)`.
    fn phase(per_slice: usize, value: impl Fn(usize, usize) -> f64) -> Vec<(f64, f64)> {
        (0..SLICES)
            .flat_map(|k| {
                let value = &value;
                (0..per_slice).map(move |i| {
                    let at = (k as f64 + i as f64 / per_slice as f64) / SLICES as f64;
                    (at, value(k, i))
                })
            })
            .collect()
    }

    #[test]
    fn stalled_slices_are_ignored() {
        // A third of the slices run 100x slow and one slice saw only three
        // samples (the box stalled through it): the reading is the calm
        // slices', and it passes a threshold those sit well under.
        let calm = |i: usize| 0.5 + (i % 10) as f64 * 0.01;
        let mut samples = phase(100, |k, i| if k % 3 == 0 { 50.0 } else { calm(i) });
        samples.retain(|&(at, _)| !(0.25..0.30).contains(&at) || at < 0.2515);
        let reading = SliceReading::of(&samples, 1.0).unwrap();
        assert_eq!(reading.slices.len(), SLICES - 1, "the stalled-through slice has no value");
        assert!((reading.decile - 0.545).abs() < 1e-9, "decile {}", reading.decile);
        assert!(reading.quartile - reading.decile < 1e-9, "calm slices agree");
        assert_eq!(reading.judge(1.2), Verdict::Pass);
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        // Slice medians spread evenly over 0.6..4.4: the fast decile sits
        // under the threshold but the fast quartile does not.
        let samples = phase(50, |k, _| 0.6 + k as f64 * 0.2);
        let reading = SliceReading::of(&samples, 1.0).unwrap();
        assert!(reading.decile < 1.2 && reading.quartile >= 1.2, "{reading:?}");
        assert_eq!(reading.judge(1.2), Verdict::Unresolved);
    }

    #[test]
    fn a_distribution_shifted_past_the_threshold_fails() {
        let base = |k: usize, i: usize| 0.6 + (k % 4) as f64 * 0.05 + (i % 7) as f64 * 0.02;
        let before = SliceReading::of(&phase(60, base), 1.0).unwrap();
        assert_eq!(before.judge(1.2), Verdict::Pass);
        let after = SliceReading::of(&phase(60, |k, i| base(k, i) + 2.0), 1.0).unwrap();
        assert_eq!(after.judge(1.2), Verdict::Fail, "{after:?}");
    }

    #[test]
    fn too_few_samples_read_nothing_and_verdicts_order() {
        assert!(SliceReading::of(&phase(MIN_SLICE_SAMPLES - 1, |_, _| 1.0), 1.0).is_none());
        assert_eq!(Verdict::Pass.max(Verdict::Unresolved), Verdict::Unresolved);
        assert_eq!(Verdict::Fail.max(Verdict::Unresolved), Verdict::Fail);
    }
}
