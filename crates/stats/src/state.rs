//! Plain-data snapshots of fitted models.
//!
//! Every learner the pipeline persists (scaler, one-class SVM, MARS /
//! ridge / k-NN regressors, adaptive KDE) can export its fitted
//! parameters as one of these POD structs and be reconstructed from it
//! bit-identically. The structs deliberately contain nothing but numbers
//! and matrices: serialization lives with the caller (the core crate's
//! artifact codec), not here, so the statistics substrate stays free of
//! any on-disk format.
//!
//! Reconstruction validates shape and finiteness and returns typed
//! [`StatsError`]s — a corrupted or hand-built state never produces a
//! model that would poison downstream scoring silently.

use sidefp_linalg::Matrix;

use crate::knn::KnnRegressor;
use crate::mars::{Hinge, Mars};
use crate::ridge::PolynomialRidge;
use crate::{Kernel, Regressor, StatsError};

/// Fitted parameters of a [`crate::StandardScaler`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerState {
    /// Per-column means.
    pub means: Vec<f64>,
    /// Per-column standard deviations (zero-variance columns report 1).
    pub stds: Vec<f64>,
}

/// Fitted parameters of a [`crate::OneClassSvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvmState {
    /// Support vectors, one per row; the decision function is the kernel
    /// expansion `f(x) = Σ_l coeffs_l · k(points_l, x) − ρ`.
    pub points: Matrix,
    /// Expansion coefficients, one per support-vector row.
    pub coeffs: Vec<f64>,
    /// Decision-function offset ρ.
    pub rho: f64,
    /// Kernel the model was trained with.
    pub kernel: Kernel,
    /// Input dimension.
    pub input_dim: usize,
    /// The ν the model was trained with.
    pub nu: f64,
    /// Preserved full dual iterate.
    pub dual_alpha: Vec<f64>,
    /// Pairwise SMO updates the fit consumed.
    pub solve_iterations: usize,
}

/// One MARS basis function: a product of hinges and raw linear terms.
#[derive(Debug, Clone, PartialEq)]
pub struct MarsBasisState {
    /// Hinge factors `max(0, ±(x_j − t))`.
    pub hinges: Vec<Hinge>,
    /// Features entering the product as raw linear factors.
    pub linear: Vec<usize>,
}

/// Fitted parameters of a [`crate::mars::Mars`] model.
#[derive(Debug, Clone, PartialEq)]
pub struct MarsState {
    /// Surviving basis functions, in coefficient order.
    pub bases: Vec<MarsBasisState>,
    /// Least-squares coefficients, one per basis.
    pub coefficients: Vec<f64>,
    /// Input dimension.
    pub input_dim: usize,
    /// Generalized cross-validation score of the pruned model.
    pub gcv: f64,
}

/// Fitted parameters of a [`crate::ridge::PolynomialRidge`] model.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeState {
    /// Ridge coefficients, one per monomial.
    pub coefficients: Vec<f64>,
    /// Per-monomial exponent vectors (one exponent per input feature).
    pub exponents: Vec<Vec<u32>>,
    /// Input dimension.
    pub input_dim: usize,
}

/// Fitted parameters of a [`crate::knn::KnnRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnState {
    /// Training inputs, one sample per row.
    pub x: Matrix,
    /// Training targets, one per row of `x`.
    pub y: Vec<f64>,
    /// Neighbour count.
    pub k: usize,
}

/// Fitted parameters of a [`crate::kde::AdaptiveKde`].
///
/// Only the independent parameters are stored; the per-point `(h·λ_i)^d`
/// table and the scaling Jacobian are recomputed on reconstruction with
/// the identical arithmetic the fit uses, so a round trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct KdeState {
    /// Standardizer the density is defined under.
    pub scaler: ScalerState,
    /// Standardized training points, one per row.
    pub z: Matrix,
    /// Global bandwidth `h`.
    pub bandwidth: f64,
    /// Per-point adaptive bandwidth factors λ_i.
    pub lambdas: Vec<f64>,
}

/// Fitted parameters of any [`Regressor`] implementation the pipeline can
/// persist.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressorState {
    /// A [`crate::mars::Mars`] spline model.
    Mars(MarsState),
    /// A [`crate::ridge::PolynomialRidge`] model.
    Ridge(RidgeState),
    /// A [`crate::knn::KnnRegressor`] model.
    Knn(KnnState),
}

/// Reconstructs a boxed [`Regressor`] from its exported state.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when the state is internally
/// inconsistent (mismatched lengths, non-finite values, out-of-range
/// feature indices).
pub fn regressor_from_state(state: RegressorState) -> Result<Box<dyn Regressor>, StatsError> {
    Ok(match state {
        RegressorState::Mars(s) => Box::new(Mars::from_state(s)?),
        RegressorState::Ridge(s) => Box::new(PolynomialRidge::from_state(s)?),
        RegressorState::Knn(s) => Box::new(KnnRegressor::from_state(s)?),
    })
}

/// Shared validation: every value in `values` must be finite.
pub(crate) fn require_finite(name: &'static str, values: &[f64]) -> Result<(), StatsError> {
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidParameter {
            name,
            reason: "contains a non-finite value".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnConfig;
    use crate::mars::MarsConfig;
    use crate::ridge::RidgeConfig;

    fn training_data() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_fn(40, 2, |i, j| (i as f64 / 10.0) + j as f64);
        let y: Vec<f64> = (0..40).map(|i| (i as f64 / 10.0).sin() + 2.0).collect();
        (x, y)
    }

    #[test]
    fn every_regressor_kind_round_trips_bit_exactly() {
        let (x, y) = training_data();
        let models: Vec<Box<dyn Regressor>> = vec![
            Box::new(Mars::fit(&x, &y, &MarsConfig::default()).unwrap()),
            Box::new(PolynomialRidge::fit(&x, &y, &RidgeConfig::default()).unwrap()),
            Box::new(KnnRegressor::fit(&x, &y, &KnnConfig::default()).unwrap()),
        ];
        for model in models {
            let state = model.export_state().expect("persistable regressor");
            let rebuilt = regressor_from_state(state.clone()).unwrap();
            assert_eq!(rebuilt.export_state().unwrap(), state);
            for row in x.rows_iter() {
                let a = model.predict(row).unwrap();
                let b = rebuilt.predict(row).unwrap();
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_regressor_states_are_rejected() {
        let (x, y) = training_data();
        let mars = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        let mut s = mars.export_state();
        s.coefficients.push(1.0);
        assert!(Mars::from_state(s).is_err());

        let ridge = PolynomialRidge::fit(&x, &y, &RidgeConfig::default()).unwrap();
        let mut s = ridge.export_state();
        s.coefficients[0] = f64::NAN;
        assert!(PolynomialRidge::from_state(s).is_err());

        let knn = KnnRegressor::fit(&x, &y, &KnnConfig::default()).unwrap();
        let mut s = knn.export_state();
        s.k = 0;
        assert!(KnnRegressor::from_state(s).is_err());
    }
}
