//! Distance-weighted k-nearest-neighbor regression — an ablation baseline
//! for MARS.
//!
//! A purely local model: predicts the inverse-distance-weighted mean of the
//! `k` nearest training targets. It needs no training beyond storing the
//! data, making it a useful "no structural assumptions" contrast to MARS and
//! polynomial ridge in the `regressor/*` cells of the `sweep` bench.

use sidefp_linalg::{vecops, Matrix};

use crate::state::{KnnState, RegressorState};
use crate::{Regressor, StatsError};

/// Configuration for [`KnnRegressor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnConfig {
    /// Number of neighbors (≥ 1, clamped to the training size at fit time).
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 5 }
    }
}

/// Distance-weighted k-NN regressor.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::knn::{KnnConfig, KnnRegressor};
/// use sidefp_stats::Regressor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]])?;
/// let y = vec![0.0, 1.0, 2.0, 3.0];
/// let model = KnnRegressor::fit(&x, &y, &KnnConfig { k: 2 })?;
/// let pred = model.predict(&[1.5])?;
/// assert!((pred - 1.5).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    x: Matrix,
    y: Vec<f64>,
    k: usize,
}

impl KnnRegressor {
    /// Stores the training data.
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] if `y.len() != x.nrows()`.
    /// - [`StatsError::InsufficientData`] for an empty training set.
    /// - [`StatsError::InvalidParameter`] for `k = 0`.
    pub fn fit(x: &Matrix, y: &[f64], config: &KnnConfig) -> Result<Self, StatsError> {
        if y.len() != x.nrows() {
            return Err(StatsError::DimensionMismatch {
                expected: x.nrows(),
                got: y.len(),
            });
        }
        if x.nrows() == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        if config.k == 0 {
            return Err(StatsError::InvalidParameter {
                name: "k",
                reason: "must be at least 1".into(),
            });
        }
        Ok(KnnRegressor {
            x: x.clone(),
            y: y.to_vec(),
            k: config.k.min(x.nrows()),
        })
    }

    /// The effective `k` (after clamping to the training size).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Exports the fitted model as a plain-data [`KnnState`] snapshot;
    /// [`KnnRegressor::from_state`] reconstructs a bit-identical predictor.
    pub fn export_state(&self) -> KnnState {
        KnnState {
            x: self.x.clone(),
            y: self.y.clone(),
            k: self.k,
        }
    }

    /// Reconstructs a fitted model from an exported [`KnnState`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when target and sample
    /// counts disagree, `k` is outside `[1, nrows]`, or a value is
    /// non-finite.
    pub fn from_state(state: KnnState) -> Result<Self, StatsError> {
        if state.x.nrows() == 0 || state.x.ncols() == 0 {
            return Err(StatsError::InvalidParameter {
                name: "knn.x",
                reason: "training matrix must be non-empty".into(),
            });
        }
        if state.y.len() != state.x.nrows() {
            return Err(StatsError::InvalidParameter {
                name: "knn.y",
                reason: format!("{} targets vs {} samples", state.y.len(), state.x.nrows()),
            });
        }
        if state.k == 0 || state.k > state.x.nrows() {
            return Err(StatsError::InvalidParameter {
                name: "knn.k",
                reason: format!("k = {} outside [1, {}]", state.k, state.x.nrows()),
            });
        }
        crate::state::require_finite("knn.x", state.x.as_slice())?;
        crate::state::require_finite("knn.y", &state.y)?;
        Ok(KnnRegressor {
            x: state.x,
            y: state.y,
            k: state.k,
        })
    }
}

impl Regressor for KnnRegressor {
    fn predict(&self, x: &[f64]) -> Result<f64, StatsError> {
        if x.len() != self.x.ncols() {
            return Err(StatsError::DimensionMismatch {
                expected: self.x.ncols(),
                got: x.len(),
            });
        }
        // Collect (distance, target), take the k smallest.
        let mut pairs: Vec<(f64, f64)> = self
            .x
            .rows_iter()
            .zip(&self.y)
            .map(|(row, &t)| (vecops::distance(row, x), t))
            .collect();
        // NaN distances (a NaN query coordinate) order last under total_cmp
        // instead of panicking, so the k nearest finite neighbours still win.
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let nearest = &pairs[..self.k];

        // Exact hit → return that target (infinite weight).
        if nearest[0].0 == 0.0 {
            return Ok(nearest[0].1);
        }
        let mut wsum = 0.0;
        let mut acc = 0.0;
        for (d, t) in nearest {
            let w = 1.0 / d;
            wsum += w;
            acc += w * t;
        }
        Ok(acc / wsum)
    }

    fn input_dim(&self) -> usize {
        self.x.ncols()
    }

    fn export_state(&self) -> Option<RegressorState> {
        Some(RegressorState::Knn(KnnRegressor::export_state(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn exact_training_point_returns_target() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]).unwrap();
        let y = vec![10.0, 20.0, 30.0];
        let m = KnnRegressor::fit(&x, &y, &KnnConfig { k: 3 }).unwrap();
        assert_eq!(m.predict(&[1.0]).unwrap(), 20.0);
    }

    #[test]
    fn interpolates_between_neighbors() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let y = vec![0.0, 10.0];
        let m = KnnRegressor::fit(&x, &y, &KnnConfig { k: 2 }).unwrap();
        let p = m.predict(&[0.5]).unwrap();
        assert!((p - 5.0).abs() < 1e-9);
        // Asymmetric query weights the closer neighbor more.
        let p = m.predict(&[0.25]).unwrap();
        assert!(p < 5.0 && p > 0.0);
    }

    #[test]
    fn k_clamped_to_training_size() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let m = KnnRegressor::fit(&x, &[1.0, 2.0], &KnnConfig { k: 100 }).unwrap();
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn fits_smooth_function_reasonably() {
        let x = Matrix::from_fn(50, 1, |i, _| i as f64 / 10.0);
        let y: Vec<f64> = x.col(0).iter().map(|v| v.sin()).collect();
        let m = KnnRegressor::fit(&x, &y, &KnnConfig::default()).unwrap();
        let preds: Vec<f64> = (0..40)
            .map(|i| m.predict(&[0.25 + i as f64 / 10.0]).unwrap())
            .collect();
        let truth: Vec<f64> = (0..40).map(|i| (0.25 + i as f64 / 10.0).sin()).collect();
        assert!(descriptive::rmse(&truth, &preds).unwrap() < 0.1);
    }

    #[test]
    fn rejects_bad_input() {
        let x = Matrix::from_rows(&[&[0.0]]).unwrap();
        assert!(KnnRegressor::fit(&x, &[1.0, 2.0], &KnnConfig::default()).is_err());
        assert!(KnnRegressor::fit(&x, &[1.0], &KnnConfig { k: 0 }).is_err());
        let m = KnnRegressor::fit(&x, &[1.0], &KnnConfig::default()).unwrap();
        assert!(m.predict(&[0.0, 1.0]).is_err());
        assert_eq!(m.input_dim(), 1);
    }

    #[test]
    fn predict_does_not_panic_on_nan_query() {
        // Regression: the distance sort used partial_cmp().expect("finite
        // distances") and panicked when a query coordinate was NaN. The
        // training set is validated finite at fit time, so NaN distances can
        // only come from the query; they now order last without panicking.
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]).unwrap();
        let m = KnnRegressor::fit(&x, &[0.0, 1.0, 2.0], &KnnConfig { k: 2 }).unwrap();
        let p = m.predict(&[f64::NAN]).unwrap();
        assert!(p.is_nan(), "NaN query propagates as NaN, got {p}");
        // A finite query on the same model is unaffected.
        assert!(m.predict(&[1.0]).unwrap().is_finite());
    }
}
