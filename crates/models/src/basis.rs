//! Computational feature functions: fixed basis expansions over raw input.
//!
//! These are the paper's "computational feature function" examples: the
//! feature transformation computes a set of basis functions on the input —
//! an ensemble of pre-trained SVMs (§6's running example) or random Fourier
//! features (the standard kernel-approximation basis for deep-ish
//! nonlinearity without a neural network). In both cases the basis
//! parameters are the model's global state `θ`: learned or sampled offline,
//! immutable between retrains, shared across all users.

use std::collections::HashMap;

use velox_batch::JobExecutor;
use velox_data::rng::splitmix64;
use velox_linalg::Vector;

use crate::{refit_user_weights, Item, ModelError, RetrainResult, TrainingExample, VeloxModel};

/// Deterministic pseudo-random stream used for basis initialization
/// (splitmix64 → uniform / Gaussian via Box–Muller pairs).
struct BasisRng {
    state: u64,
}

impl BasisRng {
    fn new(seed: u64) -> Self {
        BasisRng { state: seed }
    }
    fn uniform(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }
    fn gaussian(&mut self) -> f64 {
        // Box–Muller; fresh pair each call (throughput is irrelevant here,
        // this runs once at model construction).
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

fn expect_raw(item: &Item, input_dim: usize) -> Result<&Vector, ModelError> {
    match item {
        Item::Raw(x) => {
            if x.len() != input_dim {
                return Err(ModelError::DimensionMismatch { expected: input_dim, actual: x.len() });
            }
            Ok(x)
        }
        Item::Id(_) => Err(ModelError::WrongItemKind { expected: "raw feature payload" }),
    }
}

/// The identity feature function: `f(x) = x`.
///
/// Turns Velox into plain per-user ridge regression over raw item features
/// — the simplest model and the quickstart example.
#[derive(Debug, Clone)]
pub struct IdentityModel {
    name: String,
    dim: usize,
    lambda: f64,
}

impl IdentityModel {
    /// Creates an identity model of input (= output) dimension `dim`, with
    /// ridge constant `lambda` used at offline retrain time.
    pub fn new(name: impl Into<String>, dim: usize, lambda: f64) -> Self {
        assert!(dim > 0 && lambda > 0.0);
        IdentityModel { name: name.into(), dim, lambda }
    }
}

impl VeloxModel for IdentityModel {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        self.dim
    }
    fn is_materialized(&self) -> bool {
        false
    }
    fn features(&self, item: &Item) -> Result<Vector, ModelError> {
        Ok(expect_raw(item, self.dim)?.clone())
    }
    fn retrain(
        &self,
        data: &[TrainingExample],
        _user_weights: &HashMap<u64, Vector>,
        executor: &JobExecutor,
    ) -> Result<RetrainResult, ModelError> {
        let user_weights = refit_user_weights(self, data, self.lambda, executor)?;
        Ok(RetrainResult { model: Box::new(self.clone()), user_weights })
    }
}

/// Random Fourier features approximating an RBF kernel:
/// `f_k(x) = √(2/d) · cos(ω_kᵀ x + b_k)`, `ω_k ~ N(0, γ²I)`, `b_k ~ U[0, 2π)`.
///
/// The paper's stand-in for an expensive nonlinear feature function (its
/// text uses deep networks as the example); what the serving experiments
/// need is that computation, not lookup, dominates — which holds here, and
/// the cost scales with `d` exactly as Figure 4 assumes.
#[derive(Debug, Clone)]
pub struct RandomFourierModel {
    name: String,
    input_dim: usize,
    /// ω matrix, row k = ω_k (d × input_dim), flattened row-major.
    omega: Vec<f64>,
    /// Phase offsets b (length d).
    phase: Vec<f64>,
    lambda: f64,
}

impl RandomFourierModel {
    /// Samples a basis: `dim` features over `input_dim`-dimensional input,
    /// kernel bandwidth `gamma`, deterministic in `seed`.
    pub fn new(
        name: impl Into<String>,
        input_dim: usize,
        dim: usize,
        gamma: f64,
        lambda: f64,
        seed: u64,
    ) -> Self {
        assert!(input_dim > 0 && dim > 0 && gamma > 0.0 && lambda > 0.0);
        let mut rng = BasisRng::new(seed);
        let omega: Vec<f64> = (0..dim * input_dim).map(|_| rng.gaussian() * gamma).collect();
        let phase: Vec<f64> = (0..dim).map(|_| rng.uniform() * std::f64::consts::TAU).collect();
        RandomFourierModel { name: name.into(), input_dim, omega, phase, lambda }
    }

    /// Input dimension expected in `Item::Raw` payloads.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }
}

impl VeloxModel for RandomFourierModel {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        self.phase.len()
    }
    fn is_materialized(&self) -> bool {
        false
    }
    fn features(&self, item: &Item) -> Result<Vector, ModelError> {
        let x = expect_raw(item, self.input_dim)?;
        let d = self.dim();
        let scale = (2.0 / d as f64).sqrt();
        let mut out = Vec::with_capacity(d);
        for k in 0..d {
            let row = &self.omega[k * self.input_dim..(k + 1) * self.input_dim];
            let proj = velox_linalg::vector::dot_slices(row, x.as_slice());
            out.push(scale * (proj + self.phase[k]).cos());
        }
        Ok(Vector::from_vec(out))
    }
    fn retrain(
        &self,
        data: &[TrainingExample],
        _user_weights: &HashMap<u64, Vector>,
        executor: &JobExecutor,
    ) -> Result<RetrainResult, ModelError> {
        let user_weights = refit_user_weights(self, data, self.lambda, executor)?;
        Ok(RetrainResult { model: Box::new(self.clone()), user_weights })
    }
}

/// An ensemble of `d` pre-trained linear SVMs used as a feature
/// transformation — §6's worked example: "features would evaluate a set of
/// SVMs with different parameters (stored in the member state) passed in on
/// instance construction". Feature `k` is the tanh-squashed margin of SVM
/// `k`.
#[derive(Debug, Clone)]
pub struct SvmEnsembleModel {
    name: String,
    input_dim: usize,
    /// SVM weight vectors, row k = v_k (d × input_dim), row-major.
    weights: Vec<f64>,
    /// SVM intercepts (length d).
    intercepts: Vec<f64>,
    lambda: f64,
}

impl SvmEnsembleModel {
    /// Creates an ensemble from explicit SVM parameters (`svms[k] =
    /// (weight vector, intercept)`), as uploaded by a data scientist.
    pub fn from_svms(
        name: impl Into<String>,
        svms: Vec<(Vec<f64>, f64)>,
        lambda: f64,
    ) -> Result<Self, ModelError> {
        if svms.is_empty() {
            return Err(ModelError::TrainingFailed("empty SVM ensemble".into()));
        }
        let input_dim = svms[0].0.len();
        if input_dim == 0 {
            return Err(ModelError::TrainingFailed("zero-dimensional SVMs".into()));
        }
        let mut weights = Vec::with_capacity(svms.len() * input_dim);
        let mut intercepts = Vec::with_capacity(svms.len());
        for (v, c) in &svms {
            if v.len() != input_dim {
                return Err(ModelError::DimensionMismatch { expected: input_dim, actual: v.len() });
            }
            weights.extend_from_slice(v);
            intercepts.push(*c);
        }
        Ok(SvmEnsembleModel { name: name.into(), input_dim, weights, intercepts, lambda })
    }

    /// Samples a random ensemble of `dim` SVMs over `input_dim` inputs —
    /// handy for tests and benchmarks where the SVMs' provenance is
    /// irrelevant.
    pub fn random(
        name: impl Into<String>,
        input_dim: usize,
        dim: usize,
        lambda: f64,
        seed: u64,
    ) -> Self {
        assert!(input_dim > 0 && dim > 0 && lambda > 0.0);
        let mut rng = BasisRng::new(seed);
        let weights: Vec<f64> = (0..dim * input_dim).map(|_| rng.gaussian()).collect();
        let intercepts: Vec<f64> = (0..dim).map(|_| rng.gaussian() * 0.1).collect();
        SvmEnsembleModel { name: name.into(), input_dim, weights, intercepts, lambda }
    }

    /// Input dimension expected in `Item::Raw` payloads.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }
}

impl VeloxModel for SvmEnsembleModel {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        self.intercepts.len()
    }
    fn is_materialized(&self) -> bool {
        false
    }
    fn features(&self, item: &Item) -> Result<Vector, ModelError> {
        let x = expect_raw(item, self.input_dim)?;
        let d = self.dim();
        let mut out = Vec::with_capacity(d);
        for k in 0..d {
            let row = &self.weights[k * self.input_dim..(k + 1) * self.input_dim];
            let margin = velox_linalg::vector::dot_slices(row, x.as_slice()) + self.intercepts[k];
            out.push(margin.tanh());
        }
        Ok(Vector::from_vec(out))
    }
    fn retrain(
        &self,
        data: &[TrainingExample],
        _user_weights: &HashMap<u64, Vector>,
        executor: &JobExecutor,
    ) -> Result<RetrainResult, ModelError> {
        let user_weights = refit_user_weights(self, data, self.lambda, executor)?;
        Ok(RetrainResult { model: Box::new(self.clone()), user_weights })
    }
}

/// A fixed multi-layer perceptron used as a feature transformation — the
/// paper's other computational example ("deep neural networks", §3's Eq. 1
/// discussion). The network's weights are the global state `θ`: sampled (or
/// learned offline) once, immutable between retrains; the *last layer* is
/// per-user, which is exactly Velox's model family — `wᵤᵀ f(x, θ)` with
/// `f` the network's penultimate activations.
///
/// Layers are dense with tanh activations, He-style scaled initialization,
/// all deterministic in the seed.
#[derive(Debug, Clone)]
pub struct MlpFeatureModel {
    name: String,
    input_dim: usize,
    /// Per-layer (weights row-major `out×in`, biases `out`).
    layers: Vec<(Vec<f64>, Vec<f64>)>,
    lambda: f64,
}

impl MlpFeatureModel {
    /// Creates a network with the given layer widths, e.g.
    /// `new("mlp", 16, &[64, 32], ...)` maps 16 → 64 → 32 features.
    ///
    /// # Panics
    /// Panics on empty `hidden` or zero dimensions.
    pub fn new(
        name: impl Into<String>,
        input_dim: usize,
        hidden: &[usize],
        lambda: f64,
        seed: u64,
    ) -> Self {
        assert!(input_dim > 0 && !hidden.is_empty() && lambda > 0.0);
        assert!(hidden.iter().all(|&h| h > 0));
        let mut rng = BasisRng::new(seed);
        let mut layers = Vec::with_capacity(hidden.len());
        let mut fan_in = input_dim;
        for &width in hidden {
            let scale = (2.0 / fan_in as f64).sqrt();
            let weights: Vec<f64> = (0..width * fan_in).map(|_| rng.gaussian() * scale).collect();
            let biases: Vec<f64> = (0..width).map(|_| rng.gaussian() * 0.01).collect();
            layers.push((weights, biases));
            fan_in = width;
        }
        MlpFeatureModel { name: name.into(), input_dim, layers, lambda }
    }

    /// Input dimension expected in `Item::Raw` payloads.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

impl VeloxModel for MlpFeatureModel {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        self.layers.last().expect("non-empty network").1.len()
    }
    fn is_materialized(&self) -> bool {
        false
    }
    fn features(&self, item: &Item) -> Result<Vector, ModelError> {
        let x = expect_raw(item, self.input_dim)?;
        let mut activations: Vec<f64> = x.as_slice().to_vec();
        for (weights, biases) in &self.layers {
            let fan_in = activations.len();
            let mut next = Vec::with_capacity(biases.len());
            for (k, &b) in biases.iter().enumerate() {
                let row = &weights[k * fan_in..(k + 1) * fan_in];
                let z = velox_linalg::vector::dot_slices(row, &activations) + b;
                next.push(z.tanh());
            }
            activations = next;
        }
        Ok(Vector::from_vec(activations))
    }
    fn retrain(
        &self,
        data: &[TrainingExample],
        _user_weights: &HashMap<u64, Vector>,
        executor: &JobExecutor,
    ) -> Result<RetrainResult, ModelError> {
        let user_weights = refit_user_weights(self, data, self.lambda, executor)?;
        Ok(RetrainResult { model: Box::new(self.clone()), user_weights })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velox_batch::JobExecutor;

    fn raw(v: Vec<f64>) -> Item {
        Item::Raw(Vector::from_vec(v))
    }

    #[test]
    fn identity_passes_through() {
        let m = IdentityModel::new("id", 3, 0.1);
        let f = m.features(&raw(vec![1.0, 2.0, 3.0])).unwrap();
        assert_eq!(f.as_slice(), &[1.0, 2.0, 3.0]);
        assert!(!m.is_materialized());
        assert_eq!(m.dim(), 3);
    }

    #[test]
    fn identity_rejects_wrong_inputs() {
        let m = IdentityModel::new("id", 3, 0.1);
        assert!(matches!(
            m.features(&raw(vec![1.0])),
            Err(ModelError::DimensionMismatch { expected: 3, actual: 1 })
        ));
        assert!(matches!(m.features(&Item::Id(5)), Err(ModelError::WrongItemKind { .. })));
    }

    #[test]
    fn rff_is_deterministic_and_bounded() {
        let m1 = RandomFourierModel::new("rff", 4, 64, 1.0, 0.1, 9);
        let m2 = RandomFourierModel::new("rff", 4, 64, 1.0, 0.1, 9);
        let x = raw(vec![0.5, -0.5, 1.0, 0.0]);
        let f1 = m1.features(&x).unwrap();
        let f2 = m2.features(&x).unwrap();
        assert_eq!(f1, f2);
        let bound = (2.0 / 64.0f64).sqrt() + 1e-12;
        assert!(f1.iter().all(|&v| v.abs() <= bound));
        assert_eq!(f1.len(), 64);
        // Different seed → different basis.
        let m3 = RandomFourierModel::new("rff", 4, 64, 1.0, 0.1, 10);
        assert_ne!(m3.features(&x).unwrap(), f1);
    }

    #[test]
    fn rff_kernel_approximation() {
        // E[f(x)·f(y)] ≈ exp(-γ²||x−y||²/2) for the RBF kernel; with d=4096
        // features the approximation should be decent.
        let m = RandomFourierModel::new("rff", 2, 4096, 1.0, 0.1, 3);
        let x = Vector::from_vec(vec![0.3, -0.2]);
        let y = Vector::from_vec(vec![-0.1, 0.4]);
        let fx = m.features(&Item::Raw(x.clone())).unwrap();
        let fy = m.features(&Item::Raw(y.clone())).unwrap();
        let approx = fx.dot(&fy).unwrap();
        let exact = (-x.sub(&y).unwrap().norm2_squared() / 2.0).exp();
        assert!((approx - exact).abs() < 0.05, "kernel approx {approx} vs exact {exact}");
    }

    #[test]
    fn svm_ensemble_from_explicit_parameters() {
        let svms = vec![(vec![1.0, 0.0], 0.0), (vec![0.0, -1.0], 0.5)];
        let m = SvmEnsembleModel::from_svms("svm", svms, 0.1).unwrap();
        assert_eq!(m.dim(), 2);
        let f = m.features(&raw(vec![2.0, 1.0])).unwrap();
        assert!((f[0] - 2.0f64.tanh()).abs() < 1e-12);
        assert!((f[1] - (-0.5f64).tanh()).abs() < 1e-12);
    }

    #[test]
    fn svm_ensemble_validates_construction() {
        assert!(SvmEnsembleModel::from_svms("e", vec![], 0.1).is_err());
        let ragged = vec![(vec![1.0, 2.0], 0.0), (vec![1.0], 0.0)];
        assert!(matches!(
            SvmEnsembleModel::from_svms("e", ragged, 0.1),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn svm_features_bounded_by_tanh() {
        let m = SvmEnsembleModel::random("svm", 5, 32, 0.1, 1);
        let f = m.features(&raw(vec![10.0, -10.0, 5.0, 0.0, 1.0])).unwrap();
        assert!(f.iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn retrain_recovers_linear_user_preferences() {
        // Planted: user 0 has weights [2, -1] over identity features.
        let m = IdentityModel::new("id", 2, 1e-6);
        let w_true = [2.0, -1.0];
        let mut data = Vec::new();
        for i in 0..20 {
            let x = vec![(i as f64 * 0.37).sin(), (i as f64 * 0.73).cos()];
            let y = w_true[0] * x[0] + w_true[1] * x[1];
            data.push(TrainingExample { uid: 0, item: raw(x), y });
        }
        let ex = JobExecutor::new(2);
        let result = m.retrain(&data, &HashMap::new(), &ex).unwrap();
        let w = &result.user_weights[&0];
        assert!((w[0] - 2.0).abs() < 1e-3 && (w[1] + 1.0).abs() < 1e-3, "{w:?}");
    }

    #[test]
    fn retrain_handles_multiple_users_in_parallel() {
        let m = IdentityModel::new("id", 1, 1e-6);
        let mut data = Vec::new();
        for uid in 0..50u64 {
            for i in 0..5 {
                let x = 1.0 + i as f64;
                data.push(TrainingExample { uid, item: raw(vec![x]), y: (uid as f64) * x });
            }
        }
        let ex = JobExecutor::new(8);
        let result = m.retrain(&data, &HashMap::new(), &ex).unwrap();
        assert_eq!(result.user_weights.len(), 50);
        for uid in 0..50u64 {
            assert!((result.user_weights[&uid][0] - uid as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn mlp_shapes_and_determinism() {
        let m = MlpFeatureModel::new("mlp", 4, &[16, 8], 0.1, 7);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.input_dim(), 4);
        assert!(!m.is_materialized());
        let x = raw(vec![0.5, -0.25, 1.0, 0.0]);
        let f1 = m.features(&x).unwrap();
        let f2 = MlpFeatureModel::new("mlp", 4, &[16, 8], 0.1, 7).features(&x).unwrap();
        assert_eq!(f1, f2, "deterministic in seed");
        assert_eq!(f1.len(), 8);
        assert!(f1.iter().all(|&v| v.abs() <= 1.0), "tanh-bounded");
        // Different seed gives a different network.
        let f3 = MlpFeatureModel::new("mlp", 4, &[16, 8], 0.1, 8).features(&x).unwrap();
        assert_ne!(f3, f1);
    }

    #[test]
    fn mlp_is_nonlinear_in_input() {
        // f(2x) != 2 f(x): the featurizer is genuinely nonlinear.
        let m = MlpFeatureModel::new("mlp", 2, &[8], 0.1, 3);
        let f1 = m.features(&raw(vec![0.3, -0.2])).unwrap();
        let f2 = m.features(&raw(vec![0.6, -0.4])).unwrap();
        let mut doubled = f1.clone();
        doubled.scale(2.0);
        assert!(f2.sub(&doubled).unwrap().norm2() > 1e-3);
    }

    #[test]
    fn mlp_rejects_wrong_inputs() {
        let m = MlpFeatureModel::new("mlp", 3, &[4], 0.1, 1);
        assert!(matches!(m.features(&raw(vec![1.0])), Err(ModelError::DimensionMismatch { .. })));
        assert!(matches!(m.features(&Item::Id(1)), Err(ModelError::WrongItemKind { .. })));
    }

    #[test]
    fn mlp_retrain_fits_users_on_network_features() {
        // Plant a user preference in *feature space*; the per-user ridge
        // over MLP features must recover predictions on training points.
        let m = MlpFeatureModel::new("mlp", 2, &[12, 6], 1e-6, 5);
        let w_true = Vector::from_vec(vec![1.0, -0.5, 0.25, 0.75, -1.0, 0.5]);
        let mut data = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..30 {
            let x = vec![(i as f64 * 0.41).sin(), (i as f64 * 0.29).cos()];
            let f = m.features(&raw(x.clone())).unwrap();
            let y = w_true.dot(&f).unwrap();
            inputs.push((x.clone(), y));
            data.push(TrainingExample { uid: 0, item: raw(x), y });
        }
        let ex = JobExecutor::new(2);
        let result = m.retrain(&data, &HashMap::new(), &ex).unwrap();
        let w = &result.user_weights[&0];
        for (x, y) in inputs.iter().take(5) {
            let f = m.features(&raw(x.clone())).unwrap();
            let pred = w.dot(&f).unwrap();
            assert!((pred - y).abs() < 1e-4, "pred {pred} vs {y}");
        }
    }

    #[test]
    fn default_loss_is_squared_error() {
        let m = IdentityModel::new("id", 1, 0.1);
        assert_eq!(m.loss(3.0, 1.0, &raw(vec![0.0]), 0), 4.0);
    }

    #[test]
    fn computational_models_have_empty_materialized_table() {
        let m = RandomFourierModel::new("rff", 2, 8, 1.0, 0.1, 1);
        assert!(m.materialized_table().is_empty());
    }
}
