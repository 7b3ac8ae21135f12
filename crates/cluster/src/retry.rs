//! RPC retry policy and observation dedupe, shared by both transports.
//!
//! Retries are *budgeted*: a policy caps attempts, and backoff grows
//! exponentially with seeded jitter so synchronized clients desynchronize
//! instead of retry-storming. Idempotency is explicit — predicts and
//! weight reads retry freely; observes must never be blindly replayed
//! past the point where they may have been applied (a duplicate
//! Sherman–Morrison step corrupts the model). The safe replay path
//! is a client-chosen observation id plus an [`ObsDedupe`] window at the
//! applier, which turns an ambiguous "did my ack get lost?" retry into
//! an exactly-once operation.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Budgeted exponential backoff with jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per logical call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Ceiling for one backoff step.
    pub backoff_max: Duration,
    /// Jitter fraction in `[0, 1]`: each step is scaled by a uniform
    /// factor in `[1 - jitter/2, 1 + jitter/2]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..Default::default() }
    }

    /// Backoff to sleep before retry number `retry` (0-based: the wait
    /// between attempt 1 and attempt 2 is `backoff(0, ..)`), given one
    /// uniform draw `uniform ∈ [0, 1)` from the caller's seeded generator.
    /// This is the workspace's one backoff formula: both transports and
    /// the REST client sleep what it returns.
    pub fn backoff(&self, retry: u32, uniform: f64) -> Duration {
        let base = self.backoff_base.as_nanos() as u64;
        let exp = shl_sat(base, retry.min(32)).min(self.backoff_max.as_nanos() as u64);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - jitter / 2.0 + uniform * jitter;
        Duration::from_nanos((exp as f64 * factor) as u64)
    }
}

fn shl_sat(v: u64, shift: u32) -> u64 {
    if v != 0 && shift >= v.leading_zeros() {
        u64::MAX
    } else {
        v << shift
    }
}

/// Bounded exactly-once window keyed by observation id.
///
/// The applier records each observation's ack under its id; a replayed
/// request with the same id gets the *original* ack back instead of a
/// second weight update. The window is FIFO-bounded: entries older than
/// `cap` inserts are evicted, which is safe because the client's replay
/// horizon (one call's deadline) is far shorter than the window at any
/// realistic rate. Id `0` is reserved for "no dedupe" and never stored.
#[derive(Debug)]
pub struct ObsDedupe<T> {
    cap: usize,
    seen: HashMap<u64, T>,
    order: VecDeque<u64>,
}

impl<T: Clone> ObsDedupe<T> {
    /// A window remembering the most recent `cap` acks.
    pub fn new(cap: usize) -> Self {
        ObsDedupe { cap: cap.max(1), seen: HashMap::new(), order: VecDeque::new() }
    }

    /// The stored ack for `obs_id`, if this observation was already
    /// applied.
    pub fn hit(&self, obs_id: u64) -> Option<T> {
        if obs_id == 0 {
            return None;
        }
        self.seen.get(&obs_id).cloned()
    }

    /// Records `ack` for `obs_id`, evicting the oldest entry beyond the
    /// window bound.
    pub fn put(&mut self, obs_id: u64, ack: T) {
        if obs_id == 0 {
            return;
        }
        if self.seen.insert(obs_id, ack).is_none() {
            self.order.push_back(obs_id);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }

    /// Entries currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no entries are remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// A process-unique nonce for minting observation ids: high bits from
/// the OS-seeded hasher, so ids from a restarted front never collide
/// with ids a node still remembers from the previous incarnation.
pub fn obs_id_nonce() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let h = std::collections::hash_map::RandomState::new().build_hasher();
    // finish() of an empty hasher is already process-random; fold in the
    // second hasher to fill both halves.
    let a = h.finish();
    let b = std::collections::hash_map::RandomState::new().build_hasher().finish();
    (a ^ b.rotate_left(32)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use velox_data::VeloxRng;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(8),
            jitter: 0.0,
        };
        assert_eq!(p.backoff(0, 0.3), Duration::from_millis(1));
        assert_eq!(p.backoff(1, 0.3), Duration::from_millis(2));
        assert_eq!(p.backoff(2, 0.3), Duration::from_millis(4));
        assert_eq!(p.backoff(3, 0.3), Duration::from_millis(8));
        assert_eq!(p.backoff(10, 0.3), Duration::from_millis(8), "capped");
    }

    #[test]
    fn jitter_stays_in_band_and_is_seeded() {
        let p = RetryPolicy { jitter: 0.5, ..Default::default() };
        let mut a = VeloxRng::seed_from(9);
        let mut b = VeloxRng::seed_from(9);
        for retry in 0..20 {
            let d = p.backoff(retry, a.uniform());
            let nominal = p.backoff_base.as_nanos() as f64
                * 2f64
                    .powi(retry as i32)
                    .min(p.backoff_max.as_nanos() as f64 / p.backoff_base.as_nanos() as f64);
            assert!(d.as_nanos() as f64 >= nominal * 0.74, "below jitter band at {retry}");
            assert!(d.as_nanos() as f64 <= nominal * 1.26, "above jitter band at {retry}");
            assert_eq!(d, p.backoff(retry, b.uniform()), "jitter must be seed-deterministic");
        }
    }

    #[test]
    fn dedupe_replays_original_ack() {
        let mut d: ObsDedupe<(u32, u64)> = ObsDedupe::new(8);
        assert!(d.hit(5).is_none());
        d.put(5, (1, 100));
        assert_eq!(d.hit(5), Some((1, 100)));
        d.put(5, (2, 200)); // re-put does not duplicate the order entry
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn dedupe_window_is_bounded_fifo() {
        let mut d: ObsDedupe<u64> = ObsDedupe::new(3);
        for id in 1..=5u64 {
            d.put(id, id * 10);
        }
        assert_eq!(d.len(), 3);
        assert!(d.hit(1).is_none() && d.hit(2).is_none(), "oldest evicted");
        assert_eq!(d.hit(5), Some(50));
    }

    #[test]
    fn dedupe_ignores_reserved_zero_id() {
        let mut d: ObsDedupe<u64> = ObsDedupe::new(3);
        d.put(0, 1);
        assert!(d.is_empty());
        assert!(d.hit(0).is_none());
    }

    #[test]
    fn nonces_are_distinct_and_nonzero() {
        let a = obs_id_nonce();
        let b = obs_id_nonce();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
