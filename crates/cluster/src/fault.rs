//! Fault injection: health states, kill/recover schedules, and noise.
//!
//! Real clusters lose nodes; the paper's answer (§3, §8) is uid-hash
//! partitioning *plus replication* so a lost node degrades locality, not
//! availability. This module supplies the deterministic adversary for
//! exercising that claim: a [`FaultPlan`] scripts per-node kill/recover
//! points against the cluster's request clock and layers probabilistic
//! transient read failures and latency spikes on top, all driven by a
//! seeded RNG so every chaos run is reproducible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use velox_data::VeloxRng;

use crate::partition::NodeId;

/// Health of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    Up,
    /// Back from the dead, re-populating its shards from surviving
    /// replicas; not yet serving reads.
    Recovering,
    /// Dead: shards wiped, unreachable for reads and writes.
    Down,
}

impl NodeHealth {
    /// Stable snake_case label (for metrics and logs).
    pub fn label(&self) -> &'static str {
        match self {
            NodeHealth::Up => "up",
            NodeHealth::Recovering => "recovering",
            NodeHealth::Down => "down",
        }
    }

    /// Compact encoding for lock-free storage in an `AtomicU8` (used by
    /// both the simulated cluster and the TCP runtime in `velox-net`).
    pub fn encode(self) -> u8 {
        match self {
            NodeHealth::Up => 0,
            NodeHealth::Recovering => 1,
            NodeHealth::Down => 2,
        }
    }

    /// Inverse of [`NodeHealth::encode`]; unknown values decode to `Up`.
    pub fn decode(v: u8) -> NodeHealth {
        match v {
            1 => NodeHealth::Recovering,
            2 => NodeHealth::Down,
            _ => NodeHealth::Up,
        }
    }
}

/// What a scheduled fault event does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the node: wipe its shards and caches, mark it `Down`.
    Kill,
    /// Bring the node back: re-populate from surviving replicas.
    Recover,
}

/// One scheduled fault: when the cluster's request clock reaches
/// `at_request`, apply `action` to `node`.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// Request-clock tick (1-based count of routed requests) at which the
    /// event fires.
    pub at_request: u64,
    /// Target node.
    pub node: NodeId,
    /// Kill or recover.
    pub action: FaultAction,
}

/// A deterministic fault-injection plan.
///
/// Scheduled kill/recover events fire against the cluster's request clock
/// (advanced by every routed request), so a plan replays identically for
/// identical workloads. The probabilistic knobs model grey failures:
/// `read_failure_prob` makes a live node transiently unreachable for one
/// shard read (forcing a failover), and `latency_spike_prob` /
/// `latency_spike_us` add tail latency to reads without failing them.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scheduled kill/recover events (any order; the cluster sorts them).
    pub events: Vec<FaultEvent>,
    /// Probability that any single shard read at a live node transiently
    /// fails (0 disables).
    pub read_failure_prob: f64,
    /// Probability that a read picks up a latency spike (0 disables).
    pub latency_spike_prob: f64,
    /// Extra virtual microseconds added by one latency spike.
    pub latency_spike_us: f64,
    /// Seed for the plan's RNG (transient failures and spikes).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            read_failure_prob: 0.0,
            latency_spike_prob: 0.0,
            latency_spike_us: 5_000.0,
            seed: 0xFA_17,
        }
    }
}

impl FaultPlan {
    /// A plan with only scripted kill/recover events (no random noise).
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events, ..Default::default() }
    }
}

/// An installed [`FaultPlan`] and the request clock's position in it —
/// shared by the simulator and the socket runtime. Each runtime keeps its
/// own dice sites ([`FaultClock::roll`]), so a seeded plan replays the
/// same draws it always did on that runtime.
#[derive(Default)]
pub struct FaultClock {
    /// Fast-path gate: true only while a plan is installed, so the healthy
    /// serving path pays one atomic load, never a lock.
    active: AtomicBool,
    state: Mutex<Option<FaultState>>,
}

/// Plan in flight (events sorted by fire time).
struct FaultState {
    plan: FaultPlan,
    rng: VeloxRng,
    next_event: usize,
}

impl FaultClock {
    /// Installs (or replaces) `plan`; its events fire from the start.
    pub fn install(&self, mut plan: FaultPlan) {
        plan.events.sort_by_key(|e| e.at_request);
        let rng = VeloxRng::seed_from(plan.seed);
        *self.state.lock().unwrap() = Some(FaultState { plan, rng, next_event: 0 });
        self.active.store(true, Ordering::Release);
    }

    /// Removes the plan (scheduled events stop firing).
    pub fn clear(&self) {
        *self.state.lock().unwrap() = None;
        self.active.store(false, Ordering::Release);
    }

    /// Whether a plan is installed.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Pops every scheduled event due at or before `tick`. The caller
    /// applies them after this returns — kill/recover take other locks
    /// and must not nest inside the clock's.
    pub fn due_events(&self, tick: u64) -> Vec<(NodeId, FaultAction)> {
        let mut due = Vec::new();
        if !self.is_active() {
            return due;
        }
        if let Some(state) = self.state.lock().unwrap().as_mut() {
            while let Some(ev) = state.plan.events.get(state.next_event) {
                if ev.at_request > tick {
                    break;
                }
                due.push((ev.node, ev.action));
                state.next_event += 1;
            }
        }
        due
    }

    /// Runs `dice` against the installed plan and its seeded RNG; `None`
    /// when no plan is installed.
    pub fn roll<R>(&self, dice: impl FnOnce(&FaultPlan, &mut VeloxRng) -> R) -> Option<R> {
        if !self.is_active() {
            return None;
        }
        let mut guard = self.state.lock().unwrap();
        guard.as_mut().map(|state| dice(&state.plan, &mut state.rng))
    }
}

/// One health transition the cluster went through, journaled for the
/// serving layer to turn into lifecycle events (the cluster crate does not
/// depend on any particular registry).
#[derive(Debug, Clone)]
pub struct HealthTransition {
    /// The node that changed state.
    pub node: NodeId,
    /// The state it entered.
    pub health: NodeHealth,
    /// User partitions this transition left without a live replica (set
    /// on transitions to `Down`; empty otherwise): their state is gone.
    pub lost_partitions: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(NodeHealth::Up.label(), "up");
        assert_eq!(NodeHealth::Recovering.label(), "recovering");
        assert_eq!(NodeHealth::Down.label(), "down");
    }

    #[test]
    fn scripted_plan_has_no_noise() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at_request: 10,
            node: 1,
            action: FaultAction::Kill,
        }]);
        assert_eq!(plan.events.len(), 1);
        assert_eq!(plan.read_failure_prob, 0.0);
        assert_eq!(plan.latency_spike_prob, 0.0);
    }
}
