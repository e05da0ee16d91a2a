//! Polynomial ridge regression — an ablation baseline for MARS.
//!
//! Expands inputs into polynomial features (all monomials up to a given
//! total degree) and solves the L2-regularized normal equations. The
//! `regressor/*` cells of the `sweep` bench use it to quantify how much the
//! paper's MARS choice matters versus a simpler global polynomial.

use sidefp_linalg::Matrix;

use crate::state::{RegressorState, RidgeState};
use crate::{Regressor, StatsError};

/// Configuration for [`PolynomialRidge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidgeConfig {
    /// Total polynomial degree of the feature expansion (≥ 1).
    pub degree: u32,
    /// L2 regularization strength λ (≥ 0).
    pub lambda: f64,
}

impl Default for RidgeConfig {
    fn default() -> Self {
        RidgeConfig {
            degree: 3,
            lambda: 1e-6,
        }
    }
}

/// Ridge regression on polynomial features.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::ridge::{PolynomialRidge, RidgeConfig};
/// use sidefp_stats::Regressor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0]])?;
/// let y: Vec<f64> = x.col(0).iter().map(|v| v * v).collect();
/// let model = PolynomialRidge::fit(&x, &y, &RidgeConfig::default())?;
/// assert!((model.predict(&[2.5])? - 6.25).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PolynomialRidge {
    coefficients: Vec<f64>,
    exponents: Vec<Vec<u32>>,
    input_dim: usize,
}

/// Enumerates all exponent tuples with total degree ≤ `degree`.
fn monomial_exponents(dim: usize, degree: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut current = vec![0u32; dim];
    fn recurse(out: &mut Vec<Vec<u32>>, current: &mut Vec<u32>, pos: usize, remaining: u32) {
        if pos == current.len() {
            out.push(current.clone());
            return;
        }
        for e in 0..=remaining {
            current[pos] = e;
            recurse(out, current, pos + 1, remaining - e);
        }
        current[pos] = 0;
    }
    recurse(&mut out, &mut current, 0, degree);
    out
}

fn eval_monomial(exponents: &[u32], x: &[f64]) -> f64 {
    exponents
        .iter()
        .zip(x)
        .map(|(e, v)| v.powi(*e as i32))
        .product()
}

impl PolynomialRidge {
    /// Fits the model by solving `(ΦᵀΦ + λI)·w = Φᵀy` via Cholesky.
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] if `y.len() != x.nrows()`.
    /// - [`StatsError::InsufficientData`] for fewer than two samples.
    /// - [`StatsError::InvalidParameter`] for zero degree or negative λ.
    /// - [`StatsError::Linalg`] if the regularized Gram is still singular
    ///   (λ = 0 with collinear features).
    pub fn fit(x: &Matrix, y: &[f64], config: &RidgeConfig) -> Result<Self, StatsError> {
        Self::fit_observed(x, y, config, &sidefp_obs::RunContext::new())
    }

    /// [`PolynomialRidge::fit`] reporting any ridge-escalation retries into
    /// `obs` instead of a throwaway context.
    ///
    /// # Errors
    ///
    /// Same as [`PolynomialRidge::fit`].
    pub fn fit_observed(
        x: &Matrix,
        y: &[f64],
        config: &RidgeConfig,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, StatsError> {
        if y.len() != x.nrows() {
            return Err(StatsError::DimensionMismatch {
                expected: x.nrows(),
                got: y.len(),
            });
        }
        if x.nrows() < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: x.nrows(),
            });
        }
        if config.degree == 0 {
            return Err(StatsError::InvalidParameter {
                name: "degree",
                reason: "must be at least 1".into(),
            });
        }
        if config.lambda < 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "lambda",
                reason: format!("must be non-negative, got {}", config.lambda),
            });
        }

        let exponents = monomial_exponents(x.ncols(), config.degree);
        let phi = Matrix::from_fn(x.nrows(), exponents.len(), |i, j| {
            eval_monomial(&exponents[j], x.row(i))
        });
        let mut gram = phi.gram();
        for i in 0..gram.nrows() {
            gram[(i, i)] += config.lambda.max(1e-12);
        }
        let rhs = phi.vecmat(y)?;
        // High-degree monomial Grams go numerically indefinite easily; a
        // bounded ridge escalation (recorded in the solver-health
        // diagnostics) rescues those instead of failing the whole fit.
        let rec = sidefp_linalg::cholesky_ridged(&gram, &sidefp_linalg::Escalation::default())?;
        if rec.retries > 0 {
            obs.record_cholesky_retries(rec.retries);
            obs.trace_rescue("cholesky", "ridge_retry", rec.retries);
        }
        let coefficients = rec.value.solve(&rhs)?;

        Ok(PolynomialRidge {
            coefficients,
            exponents,
            input_dim: x.ncols(),
        })
    }

    /// Number of polynomial features in the expansion.
    pub fn feature_count(&self) -> usize {
        self.exponents.len()
    }

    /// Exports the fitted model as a plain-data [`RidgeState`] snapshot;
    /// [`PolynomialRidge::from_state`] reconstructs a bit-identical
    /// predictor.
    pub fn export_state(&self) -> RidgeState {
        RidgeState {
            coefficients: self.coefficients.clone(),
            exponents: self.exponents.clone(),
            input_dim: self.input_dim,
        }
    }

    /// Reconstructs a fitted model from an exported [`RidgeState`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when coefficient and
    /// exponent counts disagree, an exponent tuple has the wrong length,
    /// or a coefficient is non-finite.
    pub fn from_state(state: RidgeState) -> Result<Self, StatsError> {
        if state.input_dim == 0 {
            return Err(StatsError::InvalidParameter {
                name: "ridge.input_dim",
                reason: "must be positive".into(),
            });
        }
        if state.coefficients.is_empty() || state.coefficients.len() != state.exponents.len() {
            return Err(StatsError::InvalidParameter {
                name: "ridge.coefficients",
                reason: format!(
                    "{} coefficients vs {} exponent tuples",
                    state.coefficients.len(),
                    state.exponents.len()
                ),
            });
        }
        crate::state::require_finite("ridge.coefficients", &state.coefficients)?;
        if let Some(e) = state.exponents.iter().find(|e| e.len() != state.input_dim) {
            return Err(StatsError::InvalidParameter {
                name: "ridge.exponents",
                reason: format!(
                    "exponent tuple of length {} for dim {}",
                    e.len(),
                    state.input_dim
                ),
            });
        }
        Ok(PolynomialRidge {
            coefficients: state.coefficients,
            exponents: state.exponents,
            input_dim: state.input_dim,
        })
    }
}

impl Regressor for PolynomialRidge {
    fn predict(&self, x: &[f64]) -> Result<f64, StatsError> {
        if x.len() != self.input_dim {
            return Err(StatsError::DimensionMismatch {
                expected: self.input_dim,
                got: x.len(),
            });
        }
        Ok(self
            .exponents
            .iter()
            .zip(&self.coefficients)
            .map(|(e, c)| c * eval_monomial(e, x))
            .sum())
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn export_state(&self) -> Option<RegressorState> {
        Some(RegressorState::Ridge(PolynomialRidge::export_state(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn monomial_counts() {
        // dim=1: degrees 0..=3 → 4 features.
        assert_eq!(monomial_exponents(1, 3).len(), 4);
        // dim=2, degree 2: (0,0),(0,1),(0,2),(1,0),(1,1),(2,0) → 6.
        assert_eq!(monomial_exponents(2, 2).len(), 6);
    }

    #[test]
    fn fits_quadratic_exactly() {
        let x = Matrix::from_fn(20, 1, |i, _| i as f64 / 4.0);
        let y: Vec<f64> = x
            .col(0)
            .iter()
            .map(|v| 1.0 + 2.0 * v - 0.5 * v * v)
            .collect();
        let m = PolynomialRidge::fit(&x, &y, &RidgeConfig::default()).unwrap();
        for t in [0.3, 2.1, 4.4] {
            let expected = 1.0 + 2.0 * t - 0.5 * t * t;
            assert!((m.predict(&[t]).unwrap() - expected).abs() < 1e-3);
        }
    }

    #[test]
    fn fits_two_dim_interaction() {
        let mut rows = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                rows.push(vec![i as f64 / 2.0, j as f64 / 2.0]);
            }
        }
        let x = Matrix::from_samples(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + r[0]).collect();
        let m = PolynomialRidge::fit(&x, &y, &RidgeConfig::default()).unwrap();
        let preds = m.predict_rows(&x).unwrap();
        assert!(descriptive::r_squared(&y, &preds).unwrap() > 0.999);
    }

    #[test]
    fn heavy_regularization_shrinks_fit() {
        let x = Matrix::from_fn(10, 1, |i, _| i as f64);
        let y: Vec<f64> = x.col(0).iter().map(|v| 5.0 * v).collect();
        let tight = PolynomialRidge::fit(
            &x,
            &y,
            &RidgeConfig {
                degree: 1,
                lambda: 1e6,
            },
        )
        .unwrap();
        // Strong λ pulls coefficients toward zero → predictions shrink.
        assert!(tight.predict(&[9.0]).unwrap().abs() < 40.0);
    }

    #[test]
    fn rejects_bad_input() {
        let x = Matrix::from_fn(5, 1, |i, _| i as f64);
        let y = vec![0.0; 4];
        assert!(PolynomialRidge::fit(&x, &y, &RidgeConfig::default()).is_err());
        let y5 = vec![0.0; 5];
        assert!(PolynomialRidge::fit(
            &x,
            &y5,
            &RidgeConfig {
                degree: 0,
                lambda: 0.0
            }
        )
        .is_err());
        assert!(PolynomialRidge::fit(
            &x,
            &y5,
            &RidgeConfig {
                degree: 2,
                lambda: -1.0
            }
        )
        .is_err());
        assert!(
            PolynomialRidge::fit(&Matrix::zeros(1, 1), &[0.0], &RidgeConfig::default()).is_err()
        );
    }

    #[test]
    fn predict_dimension_checked() {
        let x = Matrix::from_fn(5, 2, |i, j| (i + j) as f64);
        let y = vec![1.0; 5];
        let m = PolynomialRidge::fit(&x, &y, &RidgeConfig::default()).unwrap();
        assert!(m.predict(&[1.0]).is_err());
        assert_eq!(m.input_dim(), 2);
        assert!(m.feature_count() > 0);
    }
}
