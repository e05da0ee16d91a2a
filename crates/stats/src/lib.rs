//! Statistical learning substrate for golden chip-free side-channel
//! fingerprinting.
//!
//! This crate implements, from scratch, every statistical technique the
//! DAC'14 golden chip-free Trojan detection flow relies on:
//!
//! - [`descriptive`]: means, variances, quantiles, correlation,
//! - [`StandardScaler`]: z-score feature standardization,
//! - [`MultivariateNormal`]: correlated Gaussian sampling (Box–Muller +
//!   Cholesky),
//! - [`Pca`]: principal component analysis (Fig. 4 projections),
//! - [`kde`]: fixed and adaptive Epanechnikov kernel density estimation with
//!   synthetic-sample generation (the paper's tail-modeling step, Eq. 5–9),
//! - [`KernelMeanMatching`]: covariate-shift correction (Eq. 3–4),
//! - [`mars`]: multivariate adaptive regression splines (the paper's choice
//!   of nonlinear regression from PCMs to fingerprints),
//! - [`OneClassSvm`]: ν-one-class SVM with an SMO solver (the paper's
//!   trusted-boundary learner),
//! - [`qp`]: the quadratic-program solvers backing KMM and the SVM,
//! - [`roc`]: ROC/AUC analysis over boundary decision values,
//! - [`mmd_test`]: permutation two-sample testing (does S5 match silicon?),
//! - [`bootstrap`]: confidence intervals for detection rates,
//! - [`ridge::PolynomialRidge`] / [`knn::KnnRegressor`]: regressor
//!   baselines for ablation studies.
//!
//! # Example: learn a trusted region and score points
//!
//! ```
//! use sidefp_linalg::Matrix;
//! use sidefp_stats::{Kernel, OneClassSvm, OneClassSvmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tight cluster near the origin.
//! let train = Matrix::from_rows(&[
//!     &[0.0, 0.1], &[0.1, -0.1], &[-0.1, 0.0], &[0.05, 0.05],
//!     &[-0.05, 0.1], &[0.1, 0.1], &[0.0, -0.1], &[-0.1, -0.05],
//! ])?;
//! let svm = OneClassSvm::fit(&train, &OneClassSvmConfig {
//!     nu: 0.1,
//!     kernel: Kernel::Rbf { gamma: 1.0 },
//!     ..Default::default()
//! })?;
//! assert!(svm.is_inlier(&[0.0, 0.0])?);
//! assert!(!svm.is_inlier(&[5.0, 5.0])?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bootstrap;
pub mod descriptive;
mod error;
mod gram;
pub mod kde;
mod kernel;
mod kmm;
pub mod knn;
pub mod mars;
mod metrics;
pub mod mmd_test;
mod mvn;
mod ocsvm;
mod pca;
pub mod qp;
mod regression;
pub mod ridge;
pub mod roc;
mod scaler;
pub mod state;

pub use error::StatsError;
// Re-export the per-run observability handle the `*_observed` solver entry
// points take, so downstream crates need no direct sidefp-obs dependency.
pub use gram::{pairwise_squared_distances, GramMatrix, KernelRows};
pub use kernel::Kernel;
pub use kmm::{KernelMeanMatching, KmmConfig};
pub use metrics::{ConfusionCounts, DetectionLabel};
pub use mvn::MultivariateNormal;
pub use ocsvm::{OneClassSvm, OneClassSvmConfig};
pub use pca::Pca;
pub use regression::Regressor;
pub use scaler::StandardScaler;
pub use sidefp_obs::{RunContext, SolverHealth};
pub use state::{
    regressor_from_state, KdeState, KnnState, MarsBasisState, MarsState, RegressorState,
    RidgeState, ScalerState, SvmState,
};

// Re-export the linalg error so `?` conversions read naturally downstream.
pub use sidefp_linalg::LinalgError;

/// Rejects matrices containing NaN/∞ entries with a typed error naming the
/// first offending coordinate (crate-wide finite-input screen).
pub(crate) fn check_finite_matrix(
    name: &'static str,
    m: &sidefp_linalg::Matrix,
) -> Result<(), StatsError> {
    if let Some(pos) = m.as_slice().iter().position(|v| !v.is_finite()) {
        let (row, col) = (pos / m.ncols().max(1), pos % m.ncols().max(1));
        return Err(StatsError::InvalidParameter {
            name,
            reason: format!(
                "non-finite entry {} at ({row}, {col}); sanitize measurements first",
                m.as_slice()[pos]
            ),
        });
    }
    Ok(())
}

/// Slice counterpart of [`check_finite_matrix`].
pub(crate) fn check_finite_slice(name: &'static str, x: &[f64]) -> Result<(), StatsError> {
    if let Some(pos) = x.iter().position(|v| !v.is_finite()) {
        return Err(StatsError::InvalidParameter {
            name,
            reason: format!("non-finite entry {} at index {pos}", x[pos]),
        });
    }
    Ok(())
}
