//! Heartbeat-driven failure detection with suspect/dead thresholds.
//!
//! Per-request timeouts discover a dead peer over and over, one blown
//! deadline at a time. A [`FailureDetector`] amortizes that discovery:
//! a probe loop (plus piggybacked data-plane outcomes) feeds per-peer
//! consecutive-miss counts, and routing consults the resulting
//! [`PeerState`] so failover happens on *suspicion* — before a request
//! has to burn its deadline finding out. Thresholds are deliberately
//! two-stage: a `Suspect` peer is deprioritized but still reachable
//! (one miss may be a lost probe, not a dead peer); a `Dead` peer is
//! skipped outright until it proves itself again.
//!
//! The detector is transport-agnostic: `velox-net` drives it from a
//! heartbeat thread over real sockets, and `SimTransport` feeds it from
//! simulated attempt outcomes, so `/cluster/health` reports the same
//! shape on both backends.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use velox_obs::{Gauge, Registry};

/// Liveness verdict for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Responding to probes.
    Alive,
    /// Missed [`SUSPECT_AFTER`] consecutive probes: deprioritized for
    /// routing but still tried as a fallback.
    Suspect,
    /// Missed [`DEAD_AFTER`] consecutive probes: skipped by routing until
    /// a probe succeeds again.
    Dead,
}

impl PeerState {
    /// Stable snake_case label (for metrics and `/cluster/health`).
    pub fn label(&self) -> &'static str {
        match self {
            PeerState::Alive => "alive",
            PeerState::Suspect => "suspect",
            PeerState::Dead => "dead",
        }
    }

    /// Compact encoding for lock-free storage in an `AtomicU8`.
    pub fn encode(self) -> u8 {
        match self {
            PeerState::Alive => 0,
            PeerState::Suspect => 1,
            PeerState::Dead => 2,
        }
    }

    /// Inverse of [`PeerState::encode`]; unknown values decode to `Alive`.
    pub fn decode(v: u8) -> PeerState {
        match v {
            1 => PeerState::Suspect,
            2 => PeerState::Dead,
            _ => PeerState::Alive,
        }
    }
}

/// Consecutive misses before a peer turns `Suspect`.
pub const SUSPECT_AFTER: u32 = 2;
/// Consecutive misses before a peer turns `Dead`.
pub const DEAD_AFTER: u32 = 5;
/// Consecutive *successes* required before a `Suspect`/`Dead` peer is
/// promoted back to `Alive` — flap damping, so a marginal link that
/// alternates hit/miss cannot oscillate routing on every probe. One
/// intervening failure resets the streak.
pub const REVIVE_AFTER: u32 = 3;

/// One peer's liveness, as reported by `/cluster/health`.
#[derive(Debug, Clone, Copy)]
pub struct PeerLiveness {
    /// Peer id.
    pub node: u32,
    /// Current verdict.
    pub state: PeerState,
    /// Consecutive probe misses.
    pub misses: u32,
    /// Round-trip time of the last successful probe, in microseconds.
    pub last_rtt_us: u64,
    /// Total probe outcomes recorded (successes + failures).
    pub probes: u64,
    /// Total probe failures recorded.
    pub failures: u64,
}

#[derive(Default)]
struct ProbeRuns {
    /// Consecutive failed probes (reset by any success).
    misses: u32,
    /// Consecutive successful probes (reset by any failure).
    streak: u32,
}

struct Slot {
    // State math runs under the mutex (run counts + transition decision);
    // the atomics mirror the results for lock-free readers on the
    // serving path.
    core: Mutex<ProbeRuns>,
    state: AtomicU8,
    last_rtt_us: AtomicU64,
    probes: AtomicU64,
    failures: AtomicU64,
}

/// Per-peer liveness from consecutive probe outcomes.
pub struct FailureDetector {
    slots: Vec<Slot>,
    exports: Mutex<Vec<Arc<Gauge>>>,
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureDetector").field("peers", &self.slots.len()).finish()
    }
}

impl FailureDetector {
    /// A detector tracking `n_peers` peers.
    pub fn new(n_peers: usize) -> Self {
        let slots = (0..n_peers)
            .map(|_| Slot {
                core: Mutex::new(ProbeRuns::default()),
                state: AtomicU8::new(PeerState::Alive.encode()),
                last_rtt_us: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            })
            .collect();
        FailureDetector { slots, exports: Mutex::new(Vec::new()) }
    }

    /// Number of peers tracked.
    pub fn n_peers(&self) -> usize {
        self.slots.len()
    }

    /// Current verdict for `peer` (lock-free).
    pub fn state(&self, peer: u32) -> PeerState {
        PeerState::decode(self.slots[peer as usize].state.load(Ordering::Acquire))
    }

    /// Records a successful probe (or data-plane call) to `peer` with the
    /// observed round trip. A `Suspect`/`Dead` peer is only promoted back
    /// to `Alive` after [`REVIVE_AFTER`] *consecutive* successes (flap
    /// damping). Returns the previous state when this outcome revived the
    /// peer — the caller's cue to run heal work (e.g. drain a ship
    /// backlog).
    pub fn record_success(&self, peer: u32, rtt_us: u64) -> Option<PeerState> {
        let slot = &self.slots[peer as usize];
        slot.probes.fetch_add(1, Ordering::Relaxed);
        slot.last_rtt_us.store(rtt_us, Ordering::Relaxed);
        // Fast path: already alive — zero the miss run, skip transitions.
        if slot.state.load(Ordering::Acquire) == PeerState::Alive.encode() {
            let mut runs = slot.core.lock().unwrap();
            runs.misses = 0;
            runs.streak = runs.streak.saturating_add(1);
            return None;
        }
        let mut runs = slot.core.lock().unwrap();
        runs.misses = 0;
        runs.streak = runs.streak.saturating_add(1);
        if runs.streak < REVIVE_AFTER {
            return None; // not enough consecutive successes yet
        }
        let old = PeerState::decode(slot.state.swap(PeerState::Alive.encode(), Ordering::AcqRel));
        if old == PeerState::Alive {
            None
        } else {
            Some(old)
        }
    }

    /// Records a missed probe (or failed data-plane call) to `peer`.
    /// Failures only escalate the verdict (`Alive → Suspect → Dead`);
    /// de-escalation happens solely through the success streak in
    /// [`FailureDetector::record_success`]. Returns the new state when
    /// the verdict changed.
    pub fn record_failure(&self, peer: u32) -> Option<PeerState> {
        let slot = &self.slots[peer as usize];
        slot.probes.fetch_add(1, Ordering::Relaxed);
        slot.failures.fetch_add(1, Ordering::Relaxed);
        let mut runs = slot.core.lock().unwrap();
        runs.streak = 0;
        runs.misses = runs.misses.saturating_add(1);
        let candidate = if runs.misses >= DEAD_AFTER {
            PeerState::Dead
        } else if runs.misses >= SUSPECT_AFTER {
            PeerState::Suspect
        } else {
            PeerState::Alive
        };
        let cur = PeerState::decode(slot.state.load(Ordering::Acquire));
        // A failure must never *improve* the verdict (a short miss run
        // after a partial revival does not mean the peer is alive).
        let new = if candidate.encode() >= cur.encode() { candidate } else { cur };
        let old = PeerState::decode(slot.state.swap(new.encode(), Ordering::AcqRel));
        if old == new {
            None
        } else {
            Some(new)
        }
    }

    /// Forces `peer` to `state` (used when the runtime *knows* — e.g. it
    /// just killed or recovered the node — rather than waiting for the
    /// probe loop to find out). Bypasses revival hysteresis.
    pub fn force(&self, peer: u32, state: PeerState) {
        let slot = &self.slots[peer as usize];
        let mut runs = slot.core.lock().unwrap();
        runs.misses = match state {
            PeerState::Alive => 0,
            PeerState::Suspect => SUSPECT_AFTER,
            PeerState::Dead => DEAD_AFTER,
        };
        runs.streak = 0;
        slot.state.store(state.encode(), Ordering::Release);
    }

    /// Snapshot of every peer's liveness.
    pub fn snapshot(&self) -> Vec<PeerLiveness> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| PeerLiveness {
                node: i as u32,
                state: PeerState::decode(s.state.load(Ordering::Acquire)),
                misses: s.core.lock().unwrap().misses,
                last_rtt_us: s.last_rtt_us.load(Ordering::Relaxed),
                probes: s.probes.load(Ordering::Relaxed),
                failures: s.failures.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Registers per-peer state gauges (`velox_detector_state`, encoded
    /// 0=alive 1=suspect 2=dead) and RTT gauges with `registry`. Call
    /// [`FailureDetector::export`] to refresh the gauges.
    pub fn register_metrics(&self, registry: &Registry) {
        let mut exports = self.exports.lock().unwrap();
        exports.clear();
        for i in 0..self.slots.len() {
            let label = i.to_string();
            let g = registry.gauge_with("velox_detector_state", &[("node", &label)]);
            exports.push(g);
            let rtt = registry.gauge_with("velox_detector_last_rtt_us", &[("node", &label)]);
            exports.push(rtt);
        }
        self.export();
    }

    /// Pushes current per-peer state into the registered gauges.
    pub fn export(&self) {
        let exports = self.exports.lock().unwrap();
        if exports.is_empty() {
            return;
        }
        for (i, s) in self.slots.iter().enumerate() {
            exports[i * 2].set(s.state.load(Ordering::Acquire) as i64);
            exports[i * 2 + 1].set(s.last_rtt_us.load(Ordering::Relaxed) as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // What the tests below lean on: one miss is not a verdict, suspicion
    // comes before death, and one success is not a revival.
    const _: () = assert!(1 < SUSPECT_AFTER && SUSPECT_AFTER < DEAD_AFTER && REVIVE_AFTER > 1);

    /// Records `n` misses for peer 0.
    fn misses(d: &FailureDetector, n: u32) {
        for _ in 0..n {
            d.record_failure(0);
        }
    }

    #[test]
    fn thresholds_drive_two_stage_verdict() {
        let d = FailureDetector::new(2);
        assert_eq!(d.state(0), PeerState::Alive);
        for miss in 1..SUSPECT_AFTER {
            assert_eq!(d.record_failure(0), None, "{miss} misses: still alive");
        }
        assert_eq!(d.record_failure(0), Some(PeerState::Suspect));
        for miss in SUSPECT_AFTER + 1..DEAD_AFTER {
            assert_eq!(d.record_failure(0), None, "{miss} misses: still suspect");
        }
        assert_eq!(d.record_failure(0), Some(PeerState::Dead));
        assert_eq!(d.record_failure(0), None); // stays dead
        assert_eq!(d.state(0), PeerState::Dead);
        assert_eq!(d.state(1), PeerState::Alive, "peers are independent");
    }

    #[test]
    fn success_revives_and_reports_previous_state() {
        let d = FailureDetector::new(1);
        misses(&d, DEAD_AFTER);
        assert_eq!(d.state(0), PeerState::Dead);
        for _ in 1..REVIVE_AFTER {
            assert_eq!(d.record_success(0, 120), None);
        }
        assert_eq!(d.record_success(0, 120), Some(PeerState::Dead));
        assert_eq!(d.state(0), PeerState::Alive);
        assert_eq!(d.record_success(0, 80), None, "already alive: no transition");
        let snap = d.snapshot();
        assert_eq!(snap[0].last_rtt_us, 80);
        assert_eq!(snap[0].failures, DEAD_AFTER as u64);
        assert_eq!(snap[0].probes, (DEAD_AFTER + REVIVE_AFTER + 1) as u64);
    }

    #[test]
    fn revival_requires_consecutive_success_streak() {
        let d = FailureDetector::new(1);
        misses(&d, SUSPECT_AFTER);
        assert_eq!(d.state(0), PeerState::Suspect);
        // One success short of the streak is not enough.
        for _ in 1..REVIVE_AFTER {
            assert_eq!(d.record_success(0, 10), None);
        }
        assert_eq!(d.state(0), PeerState::Suspect, "still damped");
        // The last success of the streak revives and reports the old state.
        assert_eq!(d.record_success(0, 10), Some(PeerState::Suspect));
        assert_eq!(d.state(0), PeerState::Alive);
    }

    #[test]
    fn flapping_link_cannot_oscillate_routing() {
        // hit/miss alternation: the success streak never reaches
        // REVIVE_AFTER and the miss run never passes one, so once suspect
        // the peer stays suspect — neither revived nor killed.
        let d = FailureDetector::new(1);
        misses(&d, SUSPECT_AFTER);
        assert_eq!(d.state(0), PeerState::Suspect);
        for _ in 0..10 {
            d.record_success(0, 10);
            assert_eq!(d.state(0), PeerState::Suspect, "single success must not revive");
            d.record_failure(0);
            assert_eq!(d.state(0), PeerState::Suspect, "single miss must not demote to alive");
        }
        // A clean streak finally revives it.
        for _ in 1..REVIVE_AFTER {
            assert_eq!(d.record_success(0, 10), None);
        }
        assert_eq!(d.record_success(0, 10), Some(PeerState::Suspect));
        assert_eq!(d.state(0), PeerState::Alive);
    }

    #[test]
    fn force_overrides_probe_history() {
        let d = FailureDetector::new(1);
        d.force(0, PeerState::Dead);
        assert_eq!(d.state(0), PeerState::Dead);
        d.force(0, PeerState::Alive);
        assert_eq!(d.state(0), PeerState::Alive);
        // A forced-alive peer starts from zero misses.
        assert_eq!(d.record_failure(0), None);
    }

    #[test]
    fn labels_and_encoding_are_stable() {
        for s in [PeerState::Alive, PeerState::Suspect, PeerState::Dead] {
            assert_eq!(PeerState::decode(s.encode()), s);
        }
        assert_eq!(PeerState::Alive.label(), "alive");
        assert_eq!(PeerState::Suspect.label(), "suspect");
        assert_eq!(PeerState::Dead.label(), "dead");
    }
}
