use sidefp_linalg::{Matrix, QrBuilder};

use crate::mars::{BasisFunction, Hinge, HingeDirection};
use crate::state::{MarsBasisState, MarsState, RegressorState};
use crate::{Regressor, StatsError};

/// Borrow every design column as a slice (trial fits extend this cheap
/// view instead of cloning the columns themselves).
fn borrow_cols(cols: &[Vec<f64>]) -> Vec<&[f64]> {
    cols.iter().map(Vec::as_slice).collect()
}

/// Configuration for [`Mars`] fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarsConfig {
    /// Maximum number of basis functions (including the intercept) the
    /// forward pass may build.
    pub max_terms: usize,
    /// Maximum interaction degree (1 = additive model, 2 = pairwise).
    pub max_interaction: usize,
    /// GCV smoothing penalty `d` in Friedman's effective-parameter count
    /// `C(M) = M + d·(M − 1)/2`; Friedman recommends 2–4.
    pub penalty: f64,
    /// Maximum number of candidate knots per (parent, feature) pair;
    /// candidates are taken as quantiles of the active data.
    pub max_knots: usize,
}

impl Default for MarsConfig {
    fn default() -> Self {
        MarsConfig {
            max_terms: 21,
            max_interaction: 2,
            penalty: 3.0,
            max_knots: 20,
        }
    }
}

/// A fitted MARS model: `ŷ(x) = Σ_k c_k · B_k(x)`.
///
/// See the [module docs](crate::mars) for the algorithm outline and an
/// example.
#[derive(Debug, Clone)]
pub struct Mars {
    bases: Vec<BasisFunction>,
    coefficients: Vec<f64>,
    input_dim: usize,
    gcv: f64,
}

impl Mars {
    /// Fits a MARS model to rows of `x` and targets `y`.
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] if `y.len() != x.nrows()`.
    /// - [`StatsError::InsufficientData`] for fewer than four samples.
    /// - [`StatsError::InvalidParameter`] for a zero `max_terms` /
    ///   `max_interaction` / `max_knots` or negative penalty.
    pub fn fit(x: &Matrix, y: &[f64], config: &MarsConfig) -> Result<Self, StatsError> {
        Self::fit_observed(x, y, config, &sidefp_obs::RunContext::new())
    }

    /// [`Mars::fit`] reporting the fitted model shape as a trace event into
    /// `obs` instead of a throwaway context.
    ///
    /// MARS solves its least-squares subproblems by QR, so there are no
    /// ridge-escalation rescues to count; the observability hook records a
    /// deterministic `model_fit` trace event carrying the surviving basis
    /// count, which pins the pruned model shape in the run's trace log.
    ///
    /// # Errors
    ///
    /// Same as [`Mars::fit`].
    pub fn fit_observed(
        x: &Matrix,
        y: &[f64],
        config: &MarsConfig,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, StatsError> {
        let n = x.nrows();
        if y.len() != n {
            return Err(StatsError::DimensionMismatch {
                expected: n,
                got: y.len(),
            });
        }
        if n < 4 {
            return Err(StatsError::InsufficientData { needed: 4, got: n });
        }
        if config.max_terms == 0 {
            return Err(StatsError::InvalidParameter {
                name: "max_terms",
                reason: "must be at least 1".into(),
            });
        }
        if config.max_interaction == 0 {
            return Err(StatsError::InvalidParameter {
                name: "max_interaction",
                reason: "must be at least 1".into(),
            });
        }
        if config.max_knots == 0 {
            return Err(StatsError::InvalidParameter {
                name: "max_knots",
                reason: "must be at least 1".into(),
            });
        }
        if config.penalty < 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "penalty",
                reason: format!("must be non-negative, got {}", config.penalty),
            });
        }

        let mut bases = vec![BasisFunction::intercept()];
        let mut design_cols: Vec<Vec<f64>> = vec![vec![1.0; n]];
        // Seed with plain linear terms so the model never extrapolates
        // flat; pruning may still remove them if they carry no signal.
        for feature in 0..x.ncols() {
            let linear = BasisFunction::linear(feature);
            design_cols.push(Self::basis_column(&linear, x));
            bases.push(linear);
        }
        let mut best_rss = Self::fit_rss(&borrow_cols(&design_cols), y)?;

        // The design matrix must stay overdetermined: cap the term count at
        // both the configured budget and (n − 1) columns.
        let term_cap = config.max_terms.min(n.saturating_sub(1));

        // ---- Forward pass ----
        while bases.len() + 1 < term_cap {
            // Enumerate every admissible (parent, feature, knot) triple
            // first, then score the trial fits in parallel: each trial is
            // an independent QR factorization, the dominant cost of the
            // forward pass.
            let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
            for parent_idx in 0..bases.len() {
                if bases[parent_idx].degree() >= config.max_interaction {
                    continue;
                }
                let parent_col = &design_cols[parent_idx];
                for feature in 0..x.ncols() {
                    if bases[parent_idx].uses_feature(feature) {
                        continue;
                    }
                    for knot in Self::candidate_knots(x, parent_col, feature, config.max_knots) {
                        candidates.push((parent_idx, feature, knot));
                    }
                }
            }
            // Every trial shares the columns already in the model, so the
            // shared prefix is factored once per round and each candidate
            // clones it and pushes only its two hinge columns — the
            // incremental QR replays the full factorization's arithmetic
            // exactly, so trial RSS values are bit-identical to refitting
            // from scratch.
            let mut prefix = QrBuilder::new(n, y)?;
            for col in &design_cols {
                prefix.push_column(col)?;
            }
            let scores: Vec<Result<f64, StatsError>> =
                sidefp_parallel::map_indexed(candidates.len(), |c| {
                    let (parent_idx, feature, knot) = candidates[c];
                    let (pos, neg) = Self::hinge_pair(&bases[parent_idx], feature, knot);
                    let pos_col = Self::basis_column(&pos, x);
                    let neg_col = Self::basis_column(&neg, x);
                    let mut qr = prefix.clone();
                    qr.push_column(&pos_col)?;
                    qr.push_column(&neg_col)?;
                    Ok(qr.rss())
                });
            // Scan in enumeration order with strict improvement, so ties
            // resolve to the lowest candidate index — exactly the
            // sequential first-wins behavior at any thread count.
            let mut best: Option<(usize, f64)> = None;
            for (c, score) in scores.into_iter().enumerate() {
                let rss = score?;
                if best.is_none_or(|(_, b)| rss < b) {
                    best = Some((c, rss));
                }
            }
            match best {
                Some((c, rss)) if rss < best_rss * (1.0 - 1e-9) => {
                    let (parent_idx, feature, knot) = candidates[c];
                    let (pos, neg) = Self::hinge_pair(&bases[parent_idx], feature, knot);
                    design_cols.push(Self::basis_column(&pos, x));
                    design_cols.push(Self::basis_column(&neg, x));
                    bases.push(pos);
                    bases.push(neg);
                    best_rss = rss;
                }
                _ => break,
            }
        }

        // ---- Backward pruning by GCV ----
        let mut active: Vec<usize> = (0..bases.len()).collect();
        let (mut best_active, mut best_gcv) = {
            let cols: Vec<&[f64]> = active.iter().map(|&i| design_cols[i].as_slice()).collect();
            let rss = Self::fit_rss(&cols, y)?;
            (
                active.clone(),
                Self::gcv(rss, n, active.len(), config.penalty),
            )
        };
        while active.len() > 1 {
            // Try removing each non-intercept term; keep the best removal.
            // Linear seed terms are protected: within the training range a
            // hinge combination can replicate them (making them look
            // redundant to GCV), but they are what keeps extrapolation
            // slopes alive outside the range.
            let removable: Vec<usize> = active
                .iter()
                .enumerate()
                .filter(|(_, &idx)| {
                    !(bases[idx].is_intercept()
                        || (bases[idx].hinges().is_empty()
                            && !bases[idx].linear_features().is_empty()))
                })
                .map(|(pos, _)| pos)
                .collect();
            // Score every removal trial in parallel (one QR each), then
            // scan in order so ties resolve to the lowest position.
            let scores: Vec<Result<f64, StatsError>> =
                sidefp_parallel::map_indexed(removable.len(), |t| {
                    let pos = removable[t];
                    let cols: Vec<&[f64]> = active
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| *p != pos)
                        .map(|(_, &i)| design_cols[i].as_slice())
                        .collect();
                    let rss = Self::fit_rss(&cols, y)?;
                    Ok(Self::gcv(rss, n, active.len() - 1, config.penalty))
                });
            let mut round_best: Option<(usize, f64)> = None;
            for (t, score) in scores.into_iter().enumerate() {
                let g = score?;
                if round_best.is_none_or(|(_, bg)| g < bg) {
                    round_best = Some((removable[t], g));
                }
            }
            let Some((remove_pos, g)) = round_best else {
                break;
            };
            active.remove(remove_pos);
            if g < best_gcv {
                best_gcv = g;
                best_active = active.clone();
            }
        }

        // ---- Final fit on the pruned basis set ----
        let final_bases: Vec<BasisFunction> =
            best_active.iter().map(|&i| bases[i].clone()).collect();
        let cols: Vec<&[f64]> = best_active
            .iter()
            .map(|&i| design_cols[i].as_slice())
            .collect();
        let coefficients = Self::least_squares(&cols, y)?;

        let model = Mars {
            bases: final_bases,
            coefficients,
            input_dim: x.ncols(),
            gcv: best_gcv,
        };
        obs.trace(sidefp_obs::TraceEvent::ModelFit {
            model: "mars",
            detail: format!("bases={}", model.bases.len()),
        });
        Ok(model)
    }

    /// Column of basis values over all rows of `x`.
    fn basis_column(basis: &BasisFunction, x: &Matrix) -> Vec<f64> {
        x.rows_iter().map(|row| basis.eval(row)).collect()
    }

    /// The positive/negative hinge children of `parent` at a knot.
    fn hinge_pair(
        parent: &BasisFunction,
        feature: usize,
        knot: f64,
    ) -> (BasisFunction, BasisFunction) {
        let pos = parent.with_hinge(Hinge {
            feature,
            knot,
            direction: HingeDirection::Positive,
        });
        let neg = parent.with_hinge(Hinge {
            feature,
            knot,
            direction: HingeDirection::Negative,
        });
        (pos, neg)
    }

    /// Candidate knots: quantiles of the feature over rows where the parent
    /// basis is active (non-zero), excluding the extremes.
    fn candidate_knots(
        x: &Matrix,
        parent_col: &[f64],
        feature: usize,
        max_knots: usize,
    ) -> Vec<f64> {
        let mut values: Vec<f64> = x
            .rows_iter()
            .zip(parent_col)
            .filter(|(_, p)| **p != 0.0)
            .map(|(row, _)| row[feature])
            .collect();
        // NaN features must not panic the knot search: drop them up front
        // (a NaN knot would poison every hinge), then total-order the rest.
        values.retain(|v| !v.is_nan());
        values.sort_by(f64::total_cmp);
        values.dedup();
        if values.len() <= 2 {
            return values;
        }
        // Drop the extremes (a hinge at the min/max is degenerate).
        let interior = &values[1..values.len() - 1];
        if interior.len() <= max_knots {
            return interior.to_vec();
        }
        // Even quantile subsample.
        (0..max_knots)
            .map(|k| {
                let pos = k as f64 / (max_knots - 1) as f64 * (interior.len() - 1) as f64;
                interior[pos.round() as usize]
            })
            .collect()
    }

    /// Least-squares coefficients for the given design columns.
    fn least_squares(cols: &[&[f64]], y: &[f64]) -> Result<Vec<f64>, StatsError> {
        let n = y.len();
        let design = Matrix::from_fn(n, cols.len(), |i, j| cols[j][i]);
        Ok(design.qr()?.solve_least_squares(y)?)
    }

    /// Residual sum of squares of the least-squares fit on `cols`.
    fn fit_rss(cols: &[&[f64]], y: &[f64]) -> Result<f64, StatsError> {
        let n = y.len();
        let design = Matrix::from_fn(n, cols.len(), |i, j| cols[j][i]);
        Ok(design.qr()?.residual_sum_of_squares(y)?)
    }

    /// Friedman's generalized cross-validation score.
    fn gcv(rss: f64, n: usize, terms: usize, penalty: f64) -> f64 {
        let c = terms as f64 + penalty * (terms.saturating_sub(1)) as f64 / 2.0;
        let denom = 1.0 - c / n as f64;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            rss / n as f64 / (denom * denom)
        }
    }

    /// Basis functions of the fitted model (intercept first).
    pub fn bases(&self) -> &[BasisFunction] {
        &self.bases
    }

    /// Coefficients, aligned with [`Mars::bases`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Exports the fitted model as a plain-data [`MarsState`] snapshot;
    /// [`Mars::from_state`] reconstructs a bit-identical predictor.
    pub fn export_state(&self) -> MarsState {
        MarsState {
            bases: self
                .bases
                .iter()
                .map(|b| MarsBasisState {
                    hinges: b.hinges().to_vec(),
                    linear: b.linear_features().to_vec(),
                })
                .collect(),
            coefficients: self.coefficients.clone(),
            input_dim: self.input_dim,
            gcv: self.gcv,
        }
    }

    /// Reconstructs a fitted model from an exported [`MarsState`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when the state is
    /// internally inconsistent: basis/coefficient counts disagree, a
    /// feature index is out of range, or a value is non-finite.
    pub fn from_state(state: MarsState) -> Result<Self, StatsError> {
        if state.input_dim == 0 {
            return Err(StatsError::InvalidParameter {
                name: "mars.input_dim",
                reason: "must be positive".into(),
            });
        }
        if state.bases.is_empty() || state.bases.len() != state.coefficients.len() {
            return Err(StatsError::InvalidParameter {
                name: "mars.bases",
                reason: format!(
                    "{} bases vs {} coefficients",
                    state.bases.len(),
                    state.coefficients.len()
                ),
            });
        }
        crate::state::require_finite("mars.coefficients", &state.coefficients)?;
        if !(state.gcv.is_finite() && state.gcv >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "mars.gcv",
                reason: format!("must be finite and non-negative, got {}", state.gcv),
            });
        }
        let mut bases = Vec::with_capacity(state.bases.len());
        for b in state.bases {
            for h in &b.hinges {
                if h.feature >= state.input_dim || !h.knot.is_finite() {
                    return Err(StatsError::InvalidParameter {
                        name: "mars.hinges",
                        reason: format!(
                            "hinge on feature {} with knot {} is invalid for dim {}",
                            h.feature, h.knot, state.input_dim
                        ),
                    });
                }
            }
            if let Some(&j) = b.linear.iter().find(|&&j| j >= state.input_dim) {
                return Err(StatsError::InvalidParameter {
                    name: "mars.linear",
                    reason: format!(
                        "linear feature {j} out of range for dim {}",
                        state.input_dim
                    ),
                });
            }
            bases.push(BasisFunction::from_parts(b.hinges, b.linear));
        }
        Ok(Mars {
            bases,
            coefficients: state.coefficients,
            input_dim: state.input_dim,
            gcv: state.gcv,
        })
    }
}

impl Regressor for Mars {
    fn predict(&self, x: &[f64]) -> Result<f64, StatsError> {
        if x.len() != self.input_dim {
            return Err(StatsError::DimensionMismatch {
                expected: self.input_dim,
                got: x.len(),
            });
        }
        Ok(self
            .bases
            .iter()
            .zip(&self.coefficients)
            .map(|(b, c)| c * b.eval(x))
            .sum())
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn export_state(&self) -> Option<RegressorState> {
        Some(RegressorState::Mars(Mars::export_state(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    fn grid_1d(lo: f64, hi: f64, n: usize) -> Matrix {
        let step = (hi - lo) / (n - 1) as f64;
        Matrix::from_fn(n, 1, |i, _| lo + i as f64 * step)
    }

    #[test]
    fn fits_linear_function_exactly() {
        let x = grid_1d(-5.0, 5.0, 30);
        let y: Vec<f64> = x.col(0).iter().map(|v| 3.0 * v + 1.0).collect();
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        for t in [-4.0, 0.0, 2.5] {
            assert!((m.predict(&[t]).unwrap() - (3.0 * t + 1.0)).abs() < 0.1);
        }
    }

    #[test]
    fn fits_piecewise_kink() {
        let x = grid_1d(-5.0, 5.0, 41);
        let y: Vec<f64> = x.col(0).iter().map(|v| v.abs()).collect();
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        assert!((m.predict(&[2.0]).unwrap() - 2.0).abs() < 0.2);
        assert!((m.predict(&[-2.0]).unwrap() - 2.0).abs() < 0.2);
        // The greedy knot subsample may not land exactly on the kink;
        // allow a coarser error right at x = 0.
        assert!(m.predict(&[0.0]).unwrap().abs() < 0.6);
        let preds = m.predict_rows(&x).unwrap();
        let r2 = descriptive::r_squared(&y, &preds).unwrap();
        assert!(r2 > 0.97, "R² = {r2}");
    }

    #[test]
    fn fits_smooth_nonlinearity_well() {
        let x = grid_1d(0.0, 3.0, 60);
        let y: Vec<f64> = x.col(0).iter().map(|v| (v * 2.0).sin() + v).collect();
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        let preds = m.predict_rows(&x).unwrap();
        let r2 = descriptive::r_squared(&y, &preds).unwrap();
        assert!(r2 > 0.95, "R² = {r2}");
    }

    #[test]
    fn captures_interaction_terms() {
        // y = x0 * x1 on a grid requires degree-2 products of hinges.
        let mut rows = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                rows.push(vec![i as f64 / 2.0, j as f64 / 2.0]);
            }
        }
        let x = Matrix::from_samples(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1]).collect();
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        let preds = m.predict_rows(&x).unwrap();
        let r2 = descriptive::r_squared(&y, &preds).unwrap();
        assert!(r2 > 0.95, "R² = {r2}");
        // Check an interaction basis was actually selected.
        assert!(m.bases().iter().any(|b| b.degree() == 2));
    }

    #[test]
    fn additive_config_disables_interactions() {
        let mut rows = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let x = Matrix::from_samples(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1]).collect();
        let cfg = MarsConfig {
            max_interaction: 1,
            ..Default::default()
        };
        let m = Mars::fit(&x, &y, &cfg).unwrap();
        assert!(m.bases().iter().all(|b| b.degree() <= 1));
    }

    #[test]
    fn pruning_keeps_model_small_for_constant_target() {
        let x = grid_1d(0.0, 1.0, 20);
        let y = vec![5.0; 20];
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        // A constant target needs only the intercept plus the protected
        // linear seed term (whose coefficient the fit drives to ~0).
        assert!(m.bases().len() <= 3, "kept {} bases", m.bases().len());
        assert!((m.predict(&[0.5]).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fit_identical_at_any_thread_count() {
        let x = grid_1d(-3.0, 3.0, 50);
        let y: Vec<f64> = x.col(0).iter().map(|v| v.abs() + 0.3 * v).collect();
        let reference =
            sidefp_parallel::with_threads(1, || Mars::fit(&x, &y, &MarsConfig::default()).unwrap());
        for threads in [2, 8] {
            let m = sidefp_parallel::with_threads(threads, || {
                Mars::fit(&x, &y, &MarsConfig::default()).unwrap()
            });
            assert_eq!(
                m.coefficients(),
                reference.coefficients(),
                "threads={threads}"
            );
            assert_eq!(m.bases().len(), reference.bases().len());
        }
    }

    #[test]
    fn rejects_bad_input() {
        let x = grid_1d(0.0, 1.0, 10);
        let y = vec![0.0; 9];
        assert!(Mars::fit(&x, &y, &MarsConfig::default()).is_err());
        let y3 = vec![0.0; 3];
        assert!(Mars::fit(&grid_1d(0.0, 1.0, 3), &y3, &MarsConfig::default()).is_err());
        let y10 = vec![0.0; 10];
        let bad = MarsConfig {
            max_terms: 0,
            ..Default::default()
        };
        assert!(Mars::fit(&x, &y10, &bad).is_err());
        let bad = MarsConfig {
            max_interaction: 0,
            ..Default::default()
        };
        assert!(Mars::fit(&x, &y10, &bad).is_err());
        let bad = MarsConfig {
            penalty: -1.0,
            ..Default::default()
        };
        assert!(Mars::fit(&x, &y10, &bad).is_err());
        let bad = MarsConfig {
            max_knots: 0,
            ..Default::default()
        };
        assert!(Mars::fit(&x, &y10, &bad).is_err());
    }

    #[test]
    fn predict_dimension_checked() {
        let x = grid_1d(0.0, 1.0, 10);
        let y: Vec<f64> = x.col(0).to_vec();
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        assert!(m.predict(&[1.0, 2.0]).is_err());
        assert_eq!(m.input_dim(), 1);
    }

    #[test]
    fn intercept_is_always_first_basis() {
        let x = grid_1d(0.0, 1.0, 15);
        let y: Vec<f64> = x.col(0).iter().map(|v| 2.0 * v).collect();
        let m = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
        assert!(m.bases()[0].is_intercept());
        assert_eq!(m.bases().len(), m.coefficients().len());
    }

    #[test]
    fn candidate_knots_skip_nan_features_without_panic() {
        // Regression: the knot sort used partial_cmp().expect("finite
        // data") and panicked when a NaN slipped past the sanitizer. NaNs
        // are now dropped before sorting, so the knot list stays finite.
        let x = Matrix::from_fn(6, 1, |i, _| if i == 2 { f64::NAN } else { i as f64 });
        let parent = vec![1.0; 6];
        let knots = Mars::candidate_knots(&x, &parent, 0, 10);
        assert!(!knots.is_empty());
        assert!(knots.iter().all(|k| k.is_finite()), "{knots:?}");

        // The full fit on NaN-bearing data must not panic either; a typed
        // error (from the downstream least-squares) is acceptable.
        let y: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let _ = Mars::fit(&x, &y, &MarsConfig::default());
    }
}
