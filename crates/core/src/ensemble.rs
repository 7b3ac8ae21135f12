//! Dynamic model selection — the abstract's "online model maintenance and
//! selection (i.e., dynamic weighting)".
//!
//! Velox can host several models of the same prediction task (e.g. a
//! matrix-factorization model and a content-based model for the same
//! catalog). [`EnsembleSelector`] serves a *weighted combination* of their
//! predictions and adapts the weights online with the multiplicative-weights
//! (Hedge/exponentiated-gradient) rule: each observation multiplies every
//! model's weight by `exp(−η · loss)` and renormalizes. Models that predict
//! well gain serving weight within `O(log n / η)` observations; a model
//! that degrades (stale, bad deploy) is de-weighted automatically, which is
//! the "model selection" half of lifecycle management.
//!
//! Weights can be global or per-user (`PerUserWeights`): per-user weighting
//! captures that different model families fit different users (heavy raters
//! suit the latent-factor model; cold users suit the content model).

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

use velox_models::Item;

use crate::error::VeloxError;
use crate::velox::Velox;

/// How ensemble weights are scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScope {
    /// One weight vector shared by all users.
    Global,
    /// Independent weights per user (falling back to the global vector for
    /// users with no feedback yet).
    PerUser,
}

/// A prediction from the ensemble, with the per-model breakdown.
#[derive(Debug, Clone)]
pub struct EnsemblePrediction {
    /// The weighted ensemble score.
    pub score: f64,
    /// `(model name, weight, that model's raw score)` per member.
    pub breakdown: Vec<(String, f64, f64)>,
}

struct Member {
    name: String,
    velox: Arc<Velox>,
}

/// An online-weighted ensemble over Velox deployments.
pub struct EnsembleSelector {
    members: Vec<Member>,
    /// Hedge learning rate η.
    eta: f64,
    /// Fixed-Share mixing rate γ (Herbster–Warmuth): after every update
    /// each weight is mixed with the uniform distribution,
    /// `w ← (1−γ)w + γ/n`. Without it a member whose weight decays to zero
    /// can never recover — fatal for lifecycle management, where a
    /// currently-bad model may be retrained into the best one.
    share: f64,
    scope: WeightScope,
    global: RwLock<Vec<f64>>,
    per_user: RwLock<HashMap<u64, Vec<f64>>>,
}

impl EnsembleSelector {
    /// Creates an ensemble over `(name, deployment)` members with learning
    /// rate `eta > 0`. Weights start uniform.
    ///
    /// # Panics
    /// Panics on an empty member list or non-positive `eta`.
    pub fn new(members: Vec<(String, Arc<Velox>)>, eta: f64, scope: WeightScope) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        assert!(eta > 0.0, "Hedge learning rate must be positive");
        let n = members.len();
        EnsembleSelector {
            members: members.into_iter().map(|(name, velox)| Member { name, velox }).collect(),
            eta,
            share: 1e-3,
            scope,
            global: RwLock::new(vec![1.0 / n as f64; n]),
            per_user: RwLock::new(HashMap::new()),
        }
    }

    /// Overrides the Fixed-Share mixing rate γ ∈ [0, 1). Larger values
    /// track regime switches faster at the cost of slower convergence in a
    /// stationary regime; 0 recovers pure Hedge (a zeroed weight is then
    /// permanent).
    pub fn with_fixed_share(mut self, gamma: f64) -> Self {
        assert!((0.0..1.0).contains(&gamma), "fixed-share rate must be in [0, 1)");
        self.share = gamma;
        self
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never: construction forbids
    /// it; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current weights for a user (the global vector under
    /// [`WeightScope::Global`] or for users without feedback).
    pub fn weights(&self, uid: u64) -> Vec<f64> {
        if self.scope == WeightScope::PerUser {
            if let Some(w) = self.per_user.read().unwrap().get(&uid) {
                return w.clone();
            }
        }
        self.global.read().unwrap().clone()
    }

    /// Member names in weight order.
    pub fn member_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name.clone()).collect()
    }

    /// Ensemble prediction: the weight-averaged member scores.
    pub fn predict(&self, uid: u64, item: &Item) -> Result<EnsemblePrediction, VeloxError> {
        let weights = self.weights(uid);
        let mut score = 0.0;
        let mut breakdown = Vec::with_capacity(self.members.len());
        for (member, &w) in self.members.iter().zip(&weights) {
            let raw = member.velox.predict(uid, item)?.score;
            score += w * raw;
            breakdown.push((member.name.clone(), w, raw));
        }
        Ok(EnsemblePrediction { score, breakdown })
    }

    /// Feeds an observation to every member (each runs its own online
    /// update) and applies the Hedge weight update from the members'
    /// *prequential* losses — the loss of each model's prediction before it
    /// saw the label, so the weighting is an honest forecast comparison.
    pub fn observe(&self, uid: u64, item: &Item, y: f64) -> Result<(), VeloxError> {
        let mut losses = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let outcome = member.velox.observe(uid, item, y)?;
            losses.push(outcome.loss);
        }
        // Normalize losses to [0, 1] for a scale-free multiplicative update
        // (Hedge's regret bound assumes bounded losses).
        let max_loss = losses.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        let factors: Vec<f64> = losses.iter().map(|l| (-self.eta * l / max_loss).exp()).collect();

        let share = self.share;
        let update = |w: &mut Vec<f64>| {
            let mut total = 0.0;
            for (wi, f) in w.iter_mut().zip(&factors) {
                *wi *= f;
                total += *wi;
            }
            let n = w.len() as f64;
            // Renormalize (guarding underflow), then Fixed-Share mix so no
            // member's weight can decay irrecoverably to zero.
            if total <= 0.0 || !total.is_finite() {
                for wi in w.iter_mut() {
                    *wi = 1.0 / n;
                }
            } else {
                for wi in w.iter_mut() {
                    *wi = (1.0 - share) * (*wi / total) + share / n;
                }
            }
        };

        match self.scope {
            WeightScope::Global => update(&mut self.global.write().unwrap()),
            WeightScope::PerUser => {
                let mut map = self.per_user.write().unwrap();
                let w = map.entry(uid).or_insert_with(|| self.global.read().unwrap().clone());
                update(w);
            }
        }
        Ok(())
    }

    /// The member currently carrying the most weight for a user.
    pub fn dominant_model(&self, uid: u64) -> (String, f64) {
        let weights = self.weights(uid);
        let (idx, &w) = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty ensemble");
        (self.members[idx].name.clone(), w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VeloxConfig;
    use std::collections::HashMap as StdHashMap;
    use velox_linalg::Vector;
    use velox_models::IdentityModel;

    /// Two deployments over the same 2-D catalog: "good" items match model
    /// A's planted structure, so A's online learner fits fast; model B is
    /// fed the same data but its feature space is degenerate (1 useful dim),
    /// so it fits worse.
    fn two_member_ensemble(scope: WeightScope) -> EnsembleSelector {
        let make = |name: &str, dim: usize| -> Arc<Velox> {
            let v = Arc::new(Velox::deploy(
                Arc::new(IdentityModel::new(name, dim, 0.5)),
                StdHashMap::new(),
                VeloxConfig::single_node(),
            ));
            for item in 0..20u64 {
                let full = [(item as f64 * 0.37).sin(), (item as f64 * 0.73).cos()];
                v.register_item(item, full[..dim].to_vec());
            }
            v
        };
        EnsembleSelector::new(
            vec![("full".into(), make("full", 2)), ("degenerate".into(), make("degenerate", 1))],
            2.0,
            scope,
        )
    }

    fn truth(item: u64) -> f64 {
        // Depends on both dims → the 1-D model cannot represent it.
        1.5 * (item as f64 * 0.37).sin() - 1.0 * (item as f64 * 0.73).cos()
    }

    #[test]
    fn weights_start_uniform_and_sum_to_one() {
        let e = two_member_ensemble(WeightScope::Global);
        let w = e.weights(0);
        assert_eq!(w, vec![0.5, 0.5]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.member_names(), vec!["full", "degenerate"]);
    }

    #[test]
    fn hedge_shifts_weight_to_the_better_model() {
        let e = two_member_ensemble(WeightScope::Global);
        for round in 0..30u64 {
            let item = round % 20;
            e.observe(7, &Item::Id(item), truth(item)).unwrap();
        }
        let (name, weight) = e.dominant_model(7);
        assert_eq!(name, "full");
        assert!(weight > 0.8, "better model should dominate: {weight}");
        let w = e.weights(7);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12, "weights stay normalized");
    }

    #[test]
    fn ensemble_prediction_is_weighted_average() {
        let e = two_member_ensemble(WeightScope::Global);
        for round in 0..10u64 {
            e.observe(1, &Item::Id(round % 20), truth(round % 20)).unwrap();
        }
        let pred = e.predict(1, &Item::Id(3)).unwrap();
        let manual: f64 = pred.breakdown.iter().map(|(_, w, s)| w * s).sum();
        assert!((pred.score - manual).abs() < 1e-12);
        assert_eq!(pred.breakdown.len(), 2);
    }

    #[test]
    fn ensemble_beats_its_worst_member() {
        let e = two_member_ensemble(WeightScope::Global);
        // Train.
        for round in 0..100u64 {
            e.observe(2, &Item::Id(round % 20), truth(round % 20)).unwrap();
        }
        // Evaluate squared error of ensemble vs. degenerate member.
        let mut err_ensemble = 0.0;
        let mut err_degenerate = 0.0;
        for item in 0..20u64 {
            let p = e.predict(2, &Item::Id(item)).unwrap();
            err_ensemble += (p.score - truth(item)).powi(2);
            let deg = p.breakdown[1].2;
            err_degenerate += (deg - truth(item)).powi(2);
        }
        assert!(
            err_ensemble < err_degenerate * 0.5,
            "ensemble {err_ensemble} vs degenerate member {err_degenerate}"
        );
    }

    #[test]
    fn per_user_weights_diverge() {
        let e = two_member_ensemble(WeightScope::PerUser);
        // User 1 produces data the full model fits; user 2 produces data
        // only the first dimension explains (so the degenerate model is
        // *equally* good and cheap noise keeps weights near parity).
        for round in 0..40u64 {
            let item = round % 20;
            e.observe(1, &Item::Id(item), truth(item)).unwrap();
            let first_dim_only = 2.0 * (item as f64 * 0.37).sin();
            e.observe(2, &Item::Id(item), first_dim_only).unwrap();
        }
        let w1 = e.weights(1);
        let w2 = e.weights(2);
        assert!(w1[0] > 0.8, "user 1 favours the full model: {w1:?}");
        assert!(w2[0] < w1[0], "user 2's weights must differ from user 1's: {w1:?} vs {w2:?}");
        // A user with no feedback gets the global (uniform) weights.
        assert_eq!(e.weights(999), vec![0.5, 0.5]);
    }

    #[test]
    fn degraded_member_is_deweighted() {
        // Build the members by hand so the test can corrupt one directly
        // (a bad deploy / data-pipeline bug on one model).
        let make = |name: &str, dim: usize| -> Arc<Velox> {
            let v = Arc::new(Velox::deploy(
                Arc::new(IdentityModel::new(name, dim, 0.5)),
                StdHashMap::new(),
                VeloxConfig::single_node(),
            ));
            for item in 0..20u64 {
                let full = [(item as f64 * 0.37).sin(), (item as f64 * 0.73).cos()];
                v.register_item(item, full[..dim].to_vec());
            }
            v
        };
        let full = make("full", 2);
        let degenerate = make("degenerate", 1);
        let e = EnsembleSelector::new(
            vec![("full".into(), Arc::clone(&full)), ("degenerate".into(), degenerate)],
            2.0,
            WeightScope::Global,
        );
        for round in 0..30u64 {
            e.observe(5, &Item::Id(round % 20), truth(round % 20)).unwrap();
        }
        assert_eq!(e.dominant_model(5).0, "full");
        let w_before = e.weights(5)[0];

        // Incident: the full deployment ingests garbage out-of-band.
        for round in 0..50u64 {
            full.observe(5, &Item::Id(round % 20), 100.0).unwrap();
        }
        // Honest traffic resumes through the ensemble; the corrupted member
        // now predicts wildly and Hedge de-weights it.
        for round in 0..10u64 {
            let item = round % 20;
            e.observe(5, &Item::Id(item), truth(item)).unwrap();
        }
        let w_after = e.weights(5)[0];
        assert!(
            w_after < w_before * 0.5,
            "corrupted member must lose weight: {w_before:.3} -> {w_after:.3}"
        );
        assert_eq!(e.dominant_model(5).0, "degenerate");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = EnsembleSelector::new(vec![], 1.0, WeightScope::Global);
    }

    #[test]
    fn raw_items_flow_through() {
        let e = two_member_ensemble(WeightScope::Global);
        // Raw items only work if every member accepts the payload — the
        // degenerate member expects d=1, so this must error, not panic.
        let raw = Item::Raw(Vector::from_vec(vec![0.5, 0.5]));
        assert!(e.predict(0, &raw).is_err());
    }
}
