//! # velox-linalg
//!
//! Dense linear algebra substrate for Velox.
//!
//! Velox's online learning phase (paper §4.2, Eq. 2) solves per-user ridge
//! regressions over the feature dimension `d`:
//!
//! ```text
//! w_u ← (F(X, θ)ᵀ F(X, θ) + λ I)⁻¹ F(X, θ)ᵀ y
//! ```
//!
//! This crate provides everything needed to do that both naively (Cholesky
//! solve per update, O(d³), as in the paper's Figure 3 prototype) and
//! incrementally (Sherman–Morrison rank-one maintenance of the inverse,
//! O(d²) per observation, the optimization the paper calls out).
//!
//! The crate is deliberately self-contained — no BLAS, no external linear
//! algebra dependencies — so that the rest of the workspace can be built and
//! benchmarked hermetically. Matrices are dense, row-major, `f64`.
//!
//! Modules:
//! - [`vector`]: dense vector type and BLAS-1 style kernels.
//! - [`matrix`]: dense row-major matrix, BLAS-2/3 style kernels.
//! - [`cholesky`]: Cholesky factorization, triangular solves, SPD inverse.
//! - [`ridge`]: batch ridge regression via the normal equations.
//! - [`sherman_morrison`]: incremental ridge maintenance via rank-one
//!   inverse updates.
//! - [`stats`]: scalar statistics used by the evaluation and bench harnesses
//!   (mean, variance, confidence intervals, RMSE).

#![warn(missing_docs)]

pub mod cholesky;
pub mod matrix;
pub mod mips;
pub mod ridge;
pub mod sherman_morrison;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use mips::{MipsIndex, ScoredItem};
pub use ridge::{ridge_fit, ridge_fit_gather, ridge_fit_gram, RidgeProblem};
pub use sherman_morrison::IncrementalRidge;
pub use vector::Vector;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible (e.g. `matvec` with wrong length).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// The matrix passed to a factorization was not symmetric positive
    /// definite (within floating-point tolerance).
    NotPositiveDefinite {
        /// Pivot index at which the factorization broke down.
        pivot: usize,
    },
    /// An operation that requires a non-empty operand received an empty one.
    Empty {
        /// The operation that failed.
        op: &'static str,
    },
    /// An operand contained NaN or infinity where finite values are
    /// required (e.g. building a MIPS index over corrupt factors).
    NonFinite {
        /// The operation that failed.
        op: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, expected, actual } => {
                write!(f, "{op}: dimension mismatch (expected {expected}, got {actual})")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot} <= 0)")
            }
            LinalgError::Empty { op } => write!(f, "{op}: empty operand"),
            LinalgError::NonFinite { op } => write!(f, "{op}: non-finite operand"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
