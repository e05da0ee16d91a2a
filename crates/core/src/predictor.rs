//! The PCM → fingerprint regression bank.
//!
//! One regression model per fingerprint coordinate (paper §2.1: `n_m`
//! functions `g_j : m_p ↦ m_j`), trained on Monte Carlo data and applied to
//! silicon PCM measurements in the silicon stage.

use sidefp_linalg::Matrix;
use sidefp_stats::knn::KnnRegressor;
use sidefp_stats::mars::Mars;
use sidefp_stats::ridge::PolynomialRidge;
use sidefp_stats::{regressor_from_state, Regressor, RegressorState};

use crate::config::{RegressionSpace, RegressorKind};
use crate::CoreError;

/// One column's fitted model, or its error, with the context it reported
/// into.
type ColumnFit = (
    Result<Box<dyn Regressor>, CoreError>,
    sidefp_obs::RunContext,
);

/// Fits the regression of one fingerprint column `y` on `x`.
fn fit_column(
    x: &Matrix,
    y: &[f64],
    kind: &RegressorKind,
    obs: &sidefp_obs::RunContext,
) -> Result<Box<dyn Regressor>, CoreError> {
    Ok(match kind {
        RegressorKind::Mars(cfg) => Box::new(Mars::fit_observed(x, y, cfg, obs)?),
        RegressorKind::Ridge(cfg) => Box::new(PolynomialRidge::fit_observed(x, y, cfg, obs)?),
        // k-NN has no iterative solver, hence nothing to observe.
        RegressorKind::Knn(cfg) => Box::new(KnnRegressor::fit(x, y, cfg)?),
    })
}

/// A bank of fitted `g_j` regressions mapping a PCM vector to each
/// fingerprint coordinate.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_core::config::RegressorKind;
/// use sidefp_core::predictor::FingerprintPredictor;
///
/// # fn main() -> Result<(), sidefp_core::CoreError> {
/// // 1-d PCM, 2-d fingerprint, linear ground truth.
/// let pcms = Matrix::from_fn(20, 1, |i, _| i as f64 / 5.0);
/// let fps = Matrix::from_fn(20, 2, |i, j| (j as f64 + 1.0) * (i as f64 / 5.0));
/// let bank = FingerprintPredictor::fit(&pcms, &fps, &RegressorKind::default())?;
/// let pred = bank.predict(&[2.0])?;
/// assert!((pred[0] - 2.0).abs() < 0.3);
/// assert!((pred[1] - 4.0).abs() < 0.6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FingerprintPredictor {
    models: Vec<Box<dyn Regressor>>,
    input_dim: usize,
    space: RegressionSpace,
}

impl FingerprintPredictor {
    /// Fits one regression per fingerprint column.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidConfig`] if row counts disagree or the
    ///   fingerprint matrix is empty.
    /// - Regression fitting errors from the statistics substrate.
    pub fn fit(
        pcms: &Matrix,
        fingerprints: &Matrix,
        kind: &RegressorKind,
    ) -> Result<Self, CoreError> {
        Self::fit_in_space_observed(
            pcms,
            fingerprints,
            kind,
            RegressionSpace::Linear,
            &sidefp_obs::RunContext::new(),
        )
    }

    /// Fits in the chosen coordinate space, recording into `obs`.
    /// [`RegressionSpace::Log`] regresses `ln(m_j)` on `ln(m_p)` — the
    /// natural coordinates when the underlying physics is multiplicative
    /// (power laws), which makes extrapolation beyond the simulated PCM
    /// range far better behaved. Each per-column MARS fit emits a
    /// `model_fit` trace event (its surviving basis count) and any
    /// ridge-escalation rescue of the polynomial baseline lands on the
    /// run's own solver-health counters.
    ///
    /// # Errors
    ///
    /// Same as [`FingerprintPredictor::fit`], plus
    /// [`CoreError::InvalidConfig`] if log space is requested for
    /// non-positive data.
    pub fn fit_in_space_observed(
        pcms: &Matrix,
        fingerprints: &Matrix,
        kind: &RegressorKind,
        space: RegressionSpace,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, CoreError> {
        if pcms.nrows() != fingerprints.nrows() {
            return Err(CoreError::InvalidConfig {
                name: "predictor data",
                reason: format!(
                    "{} PCM rows vs {} fingerprint rows",
                    pcms.nrows(),
                    fingerprints.nrows()
                ),
            });
        }
        if fingerprints.ncols() == 0 {
            return Err(CoreError::InvalidConfig {
                name: "fingerprints",
                reason: "fingerprint matrix has no columns".into(),
            });
        }
        let (x, y_all) = match space {
            RegressionSpace::Linear => (pcms.clone(), fingerprints.clone()),
            RegressionSpace::Log => {
                if pcms.as_slice().iter().any(|v| *v <= 0.0)
                    || fingerprints.as_slice().iter().any(|v| *v <= 0.0)
                {
                    return Err(CoreError::InvalidConfig {
                        name: "regression_space",
                        reason: "log space requires strictly positive data".into(),
                    });
                }
                let lx = Matrix::from_fn(pcms.nrows(), pcms.ncols(), |i, j| pcms[(i, j)].ln());
                let ly = Matrix::from_fn(fingerprints.nrows(), fingerprints.ncols(), |i, j| {
                    fingerprints[(i, j)].ln()
                });
                (lx, ly)
            }
        };
        // One column per part of a tile queue: a worker that finishes a
        // cheap column claims the next, so an 11-column bank balances.
        // Each fit runs its own candidate scans as a plain loop (a nested
        // section runs sequentially) and reports into a context of its own;
        // those are absorbed in column order after the join, so the trace
        // and solver health match the sequential loop's event for event.
        let ncols = y_all.ncols();
        let mut fits: Vec<Option<ColumnFit>> = (0..ncols).map(|_| None).collect();
        let cuts: Vec<usize> = (1..ncols).collect();
        sidefp_parallel::for_each_split_mut(&mut fits, &cuts, |j, slot| {
            let col_obs = sidefp_obs::RunContext::new();
            let model = fit_column(&x, &y_all.col(j), kind, &col_obs);
            slot[0] = Some((model, col_obs));
        });
        let mut models: Vec<Box<dyn Regressor>> = Vec::with_capacity(ncols);
        for (model, col_obs) in fits.into_iter().flatten() {
            obs.absorb(&col_obs);
            models.push(model?);
        }
        Ok(FingerprintPredictor {
            models,
            input_dim: pcms.ncols(),
            space,
        })
    }

    /// Coordinate space the bank was fitted in.
    pub fn space(&self) -> RegressionSpace {
        self.space
    }

    /// Exports every per-column model as a persistable
    /// [`RegressorState`] (artifact-export path);
    /// [`FingerprintPredictor::from_states`] is the inverse.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a model is not one of the
    /// workspace's persistable regressor families.
    pub fn export_states(&self) -> Result<Vec<RegressorState>, CoreError> {
        self.models
            .iter()
            .map(|m| {
                m.export_state().ok_or(CoreError::InvalidConfig {
                    name: "predictor",
                    reason: "regressor family has no persistable state".into(),
                })
            })
            .collect()
    }

    /// Reassembles a bank from exported per-column states — no fitting
    /// happens, so predictions are bit-identical to the exporting bank's.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty bank or a model
    /// whose input dimension disagrees with `input_dim`, and propagates
    /// per-model state validation errors.
    pub fn from_states(
        states: Vec<RegressorState>,
        input_dim: usize,
        space: RegressionSpace,
    ) -> Result<Self, CoreError> {
        if states.is_empty() {
            return Err(CoreError::InvalidConfig {
                name: "predictor",
                reason: "regressor bank must have at least one model".into(),
            });
        }
        let models = states
            .into_iter()
            .map(|s| regressor_from_state(s).map_err(CoreError::from))
            .collect::<Result<Vec<Box<dyn Regressor>>, CoreError>>()?;
        if let Some(m) = models.iter().find(|m| m.input_dim() != input_dim) {
            return Err(CoreError::InvalidConfig {
                name: "predictor",
                reason: format!(
                    "model fitted on dimension {} vs bank dimension {input_dim}",
                    m.input_dim()
                ),
            });
        }
        Ok(FingerprintPredictor {
            models,
            input_dim,
            space,
        })
    }

    /// Fingerprint dimension `n_m`.
    pub fn output_dim(&self) -> usize {
        self.models.len()
    }

    /// PCM dimension `n_p`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Predicts the fingerprint vector for one PCM vector.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the underlying models.
    pub fn predict(&self, pcm: &[f64]) -> Result<Vec<f64>, CoreError> {
        let transformed;
        let input: &[f64] = match self.space {
            RegressionSpace::Linear => pcm,
            RegressionSpace::Log => {
                if pcm.iter().any(|v| *v <= 0.0) {
                    return Err(CoreError::InvalidConfig {
                        name: "pcm",
                        reason: "log-space prediction requires positive inputs".into(),
                    });
                }
                transformed = pcm.iter().map(|v| v.ln()).collect::<Vec<f64>>();
                &transformed
            }
        };
        self.models
            .iter()
            .map(|m| {
                let raw = m.predict(input).map_err(CoreError::from)?;
                Ok(match self.space {
                    RegressionSpace::Linear => raw,
                    RegressionSpace::Log => raw.exp(),
                })
            })
            .collect()
    }

    /// Predicts fingerprints for every PCM row.
    ///
    /// # Errors
    ///
    /// - [`CoreError::ExtrapolationOverflow`] for the first non-finite
    ///   prediction, naming its device row and fingerprint column.
    /// - Propagated prediction errors.
    pub fn predict_rows(&self, pcms: &Matrix) -> Result<Matrix, CoreError> {
        let mut out = Matrix::zeros(pcms.nrows(), self.output_dim());
        for (row, pcm) in pcms.rows_iter().enumerate() {
            let pred = self.predict(pcm)?;
            if let Some((column, &value)) = pred.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                return Err(CoreError::ExtrapolationOverflow { row, column, value });
            }
            out.row_mut(row).copy_from_slice(&pred);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidefp_stats::descriptive;

    fn nonlinear_data() -> (Matrix, Matrix) {
        // PCM delay d in [1, 3]; fingerprints are smooth functions of d.
        let pcms = Matrix::from_fn(60, 1, |i, _| 1.0 + 2.0 * i as f64 / 59.0);
        let fps = Matrix::from_fn(60, 3, |i, j| {
            let d = 1.0 + 2.0 * i as f64 / 59.0;
            match j {
                0 => 1.0 / d,
                1 => d * d,
                _ => (d - 2.0).abs(),
            }
        });
        (pcms, fps)
    }

    #[test]
    fn mars_bank_fits_nonlinear_map() {
        let (pcms, fps) = nonlinear_data();
        let bank = FingerprintPredictor::fit(&pcms, &fps, &RegressorKind::default()).unwrap();
        assert_eq!(bank.output_dim(), 3);
        assert_eq!(bank.input_dim(), 1);
        let preds = bank.predict_rows(&pcms).unwrap();
        for j in 0..3 {
            let r2 = descriptive::r_squared(&fps.col(j), &preds.col(j)).unwrap();
            assert!(r2 > 0.95, "column {j}: R² = {r2}");
        }
    }

    #[test]
    fn all_regressor_kinds_work() {
        let (pcms, fps) = nonlinear_data();
        for kind in [
            RegressorKind::Mars(Default::default()),
            RegressorKind::Ridge(Default::default()),
            RegressorKind::Knn(Default::default()),
        ] {
            let bank = FingerprintPredictor::fit(&pcms, &fps, &kind).unwrap();
            let preds = bank.predict_rows(&pcms).unwrap();
            let r2 = descriptive::r_squared(&fps.col(0), &preds.col(0)).unwrap();
            assert!(r2 > 0.8, "{kind:?}: R² = {r2}");
        }
    }

    #[test]
    fn rejects_mismatched_rows() {
        let pcms = Matrix::zeros(5, 1);
        let fps = Matrix::zeros(6, 2);
        assert!(FingerprintPredictor::fit(&pcms, &fps, &RegressorKind::default()).is_err());
    }

    #[test]
    fn overflowing_extrapolation_is_a_typed_error() {
        // Log space, steep power law fitted on PCMs in [1, 2]: at PCM 1e6 the
        // log-space prediction is far beyond ln(f64::MAX) ≈ 709.
        let pcms = Matrix::from_fn(40, 1, |i, _| 1.0 + i as f64 / 39.0);
        let fps = Matrix::from_fn(40, 2, |i, j| pcms[(i, 0)].powi(60 * j as i32 + 1));
        let bank = FingerprintPredictor::fit_in_space_observed(
            &pcms,
            &fps,
            &RegressorKind::default(),
            RegressionSpace::Log,
            &sidefp_obs::RunContext::new(),
        )
        .unwrap();
        let far = Matrix::from_rows(&[&[1.5], &[1e6]]).unwrap();
        let err = bank.predict_rows(&far).unwrap_err();
        let &CoreError::ExtrapolationOverflow { row, column, value } = &err else {
            panic!("{err:?}")
        };
        assert_eq!((row, column, value), (1, 1, f64::INFINITY));
        let text = err.to_string();
        assert!(
            text.contains("regression extrapolation overflow")
                && text.contains("device row 1, fingerprint column 1"),
            "{text}"
        );
        assert!(bank.predict_rows(&pcms).is_ok());
    }

    #[test]
    fn predict_checks_dimension() {
        let (pcms, fps) = nonlinear_data();
        let bank = FingerprintPredictor::fit(&pcms, &fps, &RegressorKind::default()).unwrap();
        assert!(bank.predict(&[1.0, 2.0]).is_err());
    }
}
