use sidefp_linalg::{Matrix, QrBuilder};

use crate::mars::{BasisFunction, Hinge, HingeDirection};
use crate::state::{MarsBasisState, MarsState, RegressorState};
use crate::{Regressor, StatsError};

/// The forward pass's model: the bases, their design columns (aligned by
/// index) and the RSS of the least-squares fit on all of them.
type ForwardModel = (Vec<BasisFunction>, Vec<Vec<f64>>, f64);

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

        let (bases, design_cols, full_rss) = Self::forward(x, y, config)?;
        let (best_active, best_gcv) =
            Self::prune(&bases, &design_cols, y, config.penalty, full_rss)?;

        // Final fit on the pruned basis set.
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

    /// Forward pass: starts from the intercept and one linear term per
    /// feature, then adds the mirrored hinge pair that lowers the RSS most
    /// until the term budget is spent or no pair improves the fit.
    fn forward(x: &Matrix, y: &[f64], config: &MarsConfig) -> Result<ForwardModel, StatsError> {
        let n = x.nrows();
        let mut bases = vec![BasisFunction::intercept()];
        let mut design_cols: Vec<Vec<f64>> = vec![vec![1.0; n]];
        // Seed with plain linear terms so the model never extrapolates
        // flat; pruning may still remove them if they carry no signal.
        for feature in 0..x.ncols() {
            let linear = BasisFunction::linear(feature);
            design_cols.push(Self::basis_column(&linear, x));
            bases.push(linear);
        }
        // Running factorization of the model's columns. `QrBuilder`
        // replays the full factorization's arithmetic exactly, so every
        // RSS read from it (or from a clone extended by trial columns) is
        // bit-identical to refitting the design from scratch.
        let mut model_qr = QrBuilder::new(n, y)?;
        for col in &design_cols {
            model_qr.push_column(col)?;
        }
        let mut best_rss = model_qr.rss();

        // The design matrix must stay overdetermined: cap the term count at
        // both the configured budget and (n − 1) columns.
        let term_cap = config.max_terms.min(n.saturating_sub(1));

        while bases.len() + 1 < term_cap {
            // Enumerate every admissible (parent, feature, knot) triple
            // first, then score the trial fits in parallel.
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
            // Every trial shares the columns already in the model, so each
            // candidate clones the model's factorization and pushes only
            // its two hinge columns.
            let scores: Vec<Result<f64, StatsError>> =
                sidefp_parallel::map_indexed(candidates.len(), |c| {
                    let (parent_idx, feature, knot) = candidates[c];
                    let (pos, neg) = Self::hinge_pair(&bases[parent_idx], feature, knot);
                    let pos_col = Self::basis_column(&pos, x);
                    let neg_col = Self::basis_column(&neg, x);
                    let mut qr = model_qr.clone();
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
                    for basis in [&pos, &neg] {
                        let col = Self::basis_column(basis, x);
                        model_qr.push_column(&col)?;
                        design_cols.push(col);
                    }
                    bases.push(pos);
                    bases.push(neg);
                    best_rss = rss;
                }
                _ => break,
            }
        }

        Ok((bases, design_cols, model_qr.rss()))
    }

    /// Backward pruning by GCV: removes one term per round (the removal
    /// with the lowest GCV) down to the intercept and returns the active
    /// set with the best GCV seen, starting from the full model whose RSS
    /// is `full_rss`.
    ///
    /// Removal trials share their leading columns: a round factors
    /// `active[..pos]` once as a running [`QrBuilder`], and the trial at
    /// `pos` clones that prefix and pushes `active[pos + 1..]`. The
    /// builder replays the full factorization exactly, so each trial's
    /// RSS is bit-identical to a fresh QR of its design.
    fn prune(
        bases: &[BasisFunction],
        design_cols: &[Vec<f64>],
        y: &[f64],
        penalty: f64,
        full_rss: f64,
    ) -> Result<(Vec<usize>, f64), StatsError> {
        let n = y.len();
        let mut active: Vec<usize> = (0..bases.len()).collect();
        let mut best_active = active.clone();
        let mut best_gcv = Self::gcv(full_rss, n, active.len(), penalty);
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
            let Some(&last) = removable.last() else {
                break;
            };
            let mut prefixes = Vec::with_capacity(removable.len());
            let mut running = QrBuilder::new(n, y)?;
            for (pos, &idx) in active.iter().enumerate().take(last) {
                if removable.contains(&pos) {
                    prefixes.push(running.clone());
                }
                running.push_column(&design_cols[idx])?;
            }
            prefixes.push(running);
            // Score every removal trial in parallel, then scan in order so
            // ties resolve to the lowest position.
            let scores: Vec<Result<f64, StatsError>> =
                sidefp_parallel::map_indexed(removable.len(), |t| {
                    let mut qr = prefixes[t].clone();
                    for &idx in &active[removable[t] + 1..] {
                        qr.push_column(&design_cols[idx])?;
                    }
                    Ok(Self::gcv(qr.rss(), n, active.len() - 1, penalty))
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
        Ok((best_active, best_gcv))
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Backward pruning as it ran before trials shared their prefixes: a
    /// fresh design and a full `Qr::new` for every trial, the initial GCV
    /// included.
    fn prune_by_refit(
        bases: &[BasisFunction],
        design_cols: &[Vec<f64>],
        y: &[f64],
        penalty: f64,
    ) -> (Vec<usize>, f64) {
        let n = y.len();
        let rss = |active: &[usize]| {
            Matrix::from_fn(n, active.len(), |i, j| design_cols[active[j]][i])
                .qr()
                .unwrap()
                .residual_sum_of_squares(y)
                .unwrap()
        };
        let mut active: Vec<usize> = (0..bases.len()).collect();
        let mut best = (
            active.clone(),
            Mars::gcv(rss(&active), n, active.len(), penalty),
        );
        while active.len() > 1 {
            let mut round_best: Option<(usize, f64)> = None;
            for pos in 0..active.len() {
                let basis = &bases[active[pos]];
                if basis.is_intercept()
                    || (basis.hinges().is_empty() && !basis.linear_features().is_empty())
                {
                    continue;
                }
                let mut trial = active.clone();
                trial.remove(pos);
                let g = Mars::gcv(rss(&trial), n, trial.len(), penalty);
                if round_best.is_none_or(|(_, bg)| g < bg) {
                    round_best = Some((pos, g));
                }
            }
            let Some((pos, g)) = round_best else {
                break;
            };
            active.remove(pos);
            if g < best.1 {
                best = (active.clone(), g);
            }
        }
        best
    }

    #[test]
    fn prefix_pruning_matches_full_refit_pruning_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let random = Matrix::from_fn(80, 3, |_, _| rng.random_range(-2.0..2.0));
        // Columns 1 and 3 are equal, so their linear seed terms are too;
        // column 4 is all zeros, so its seed column takes the zero-norm
        // reflector branch in every trial that keeps it.
        let duplicated = Matrix::from_fn(80, 5, |i, j| match j {
            3 => random[(i, 1)],
            4 => 0.0,
            _ => random[(i, j)],
        });
        let target = |r: &[f64]| (2.0 * r[0]).sin() + r[1].abs() * r[2] + 0.1 * r[0] * r[1];
        for x in [&random, &duplicated] {
            let y: Vec<f64> = x.rows_iter().map(target).collect();
            for config in [
                MarsConfig::default(),
                MarsConfig {
                    max_interaction: 1,
                    penalty: 2.0,
                    ..Default::default()
                },
            ] {
                let (bases, cols, full_rss) = Mars::forward(x, &y, &config).unwrap();
                assert!(
                    bases.len() > x.ncols() + 3,
                    "forward pass added too few terms"
                );
                let (active, gcv) =
                    Mars::prune(&bases, &cols, &y, config.penalty, full_rss).unwrap();
                let (want_active, want_gcv) = prune_by_refit(&bases, &cols, &y, config.penalty);
                assert_eq!(active, want_active);
                assert_eq!(gcv.to_bits(), want_gcv.to_bits());

                let model = Mars::fit(x, &y, &config).unwrap();
                let want_cols: Vec<&[f64]> =
                    want_active.iter().map(|&i| cols[i].as_slice()).collect();
                let want_coefficients = Mars::least_squares(&want_cols, &y).unwrap();
                let want_bases: Vec<BasisFunction> =
                    want_active.iter().map(|&i| bases[i].clone()).collect();
                assert_eq!(model.bases(), want_bases.as_slice());
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(model.coefficients()), bits(&want_coefficients));
                assert_eq!(model.gcv.to_bits(), want_gcv.to_bits());
            }
        }
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
