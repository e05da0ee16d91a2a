use sidefp_linalg::Matrix;
use sidefp_obs::RunContext;

use crate::qp::{solve_box_band, BoxBandConfig};
use crate::{check_finite_matrix, descriptive, GramMatrix, Kernel, StatsError};

/// Relaxation factor for accepting an uncertified QP iterate: a KKT
/// residual within 100× the solver's tolerance still yields usable weights.
const QP_RELAXED_FACTOR: f64 = 100.0;

/// Configuration for [`KernelMeanMatching`].
#[derive(Debug, Clone, PartialEq)]
pub struct KmmConfig {
    /// Kernel used for distribution matching; `None` selects an RBF via the
    /// median heuristic on the pooled train + test data.
    pub kernel: Option<Kernel>,
    /// Weight cap `B` of the box constraint `0 ≤ β_i ≤ B` (paper Eq. 3).
    pub upper: f64,
    /// Mean-constraint half width `ε`; `None` selects the conventional
    /// `(√n_tr − 1)/√n_tr` from Gretton et al.
    pub band: Option<f64>,
    /// Step budget for the active-set QP: a step is one Newton step on the
    /// working set or one constraint release. Paper-sized solves certify
    /// in about `n` steps.
    pub max_iter: usize,
}

impl Default for KmmConfig {
    fn default() -> Self {
        KmmConfig {
            kernel: None,
            upper: 1000.0,
            band: None,
            max_iter: 4000,
        }
    }
}

/// Kernel mean matching: covariate-shift correction by importance weighting
/// (paper §2.4, Eq. 3–4).
///
/// Given a *training* population (Monte Carlo simulated PCM vectors) whose
/// distribution differs from a *testing* population (PCMs measured on the
/// devices under Trojan test), KMM finds weights `β` on the training samples
/// that minimize the maximum mean discrepancy between the weighted training
/// set and the test set in the kernel's feature space. The weighted training
/// set then *behaves like* the silicon population — the paper's mechanism
/// for anchoring the simulation model to the foundry's true operating point.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::{KernelMeanMatching, KmmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Training spans [0, 4]; test concentrates near 3.
/// let train = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0]])?;
/// let test = Matrix::from_rows(&[&[2.8], &[3.0], &[3.2]])?;
/// let kmm = KernelMeanMatching::fit(&train, &test, &KmmConfig::default())?;
/// let w = kmm.weights();
/// assert!(w[3] > w[0]); // mass moves toward the test region
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KernelMeanMatching {
    weights: Vec<f64>,
    train: Matrix,
    /// The train-side Gram matrix cached from fitting so re-weighting and
    /// diagnostics like [`KernelMeanMatching::mmd_objective`] never
    /// recompute the pairwise kernels.
    gram: GramMatrix,
}

impl KernelMeanMatching {
    /// Fits importance weights matching `train` to `test`, reporting any
    /// QP rescue into a throwaway [`RunContext`].
    ///
    /// Pipeline code should prefer [`KernelMeanMatching::fit_observed`],
    /// which reports into the run's own [`RunContext`].
    ///
    /// # Errors
    ///
    /// See [`KernelMeanMatching::fit_observed`].
    pub fn fit(train: &Matrix, test: &Matrix, config: &KmmConfig) -> Result<Self, StatsError> {
        Self::fit_observed(train, test, config, &RunContext::new())
    }

    /// Fits importance weights matching `train` to `test`, reporting any
    /// relaxed-tolerance QP acceptance or non-convergence into `obs` (a
    /// counter bump plus a `rescue` trace event).
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] if either set has fewer than two
    ///   rows.
    /// - [`StatsError::InvalidParameter`] if the matrices have no feature
    ///   columns or contain non-finite entries.
    /// - [`StatsError::DimensionMismatch`] if the column counts differ.
    /// - Parameter and solver errors from the underlying QP.
    pub fn fit_observed(
        train: &Matrix,
        test: &Matrix,
        config: &KmmConfig,
        obs: &RunContext,
    ) -> Result<Self, StatsError> {
        let ntr = train.nrows();
        let nte = test.nrows();
        if ntr < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: ntr,
            });
        }
        if nte < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: nte,
            });
        }
        if train.ncols() == 0 {
            return Err(StatsError::InvalidParameter {
                name: "train",
                reason: "matrix has no feature columns".into(),
            });
        }
        if train.ncols() != test.ncols() {
            return Err(StatsError::DimensionMismatch {
                expected: train.ncols(),
                got: test.ncols(),
            });
        }
        check_finite_matrix("train", train)?;
        check_finite_matrix("test", test)?;

        let kernel = match config.kernel {
            Some(k) => {
                k.validate()?;
                k
            }
            None => {
                let pooled = train.vstack(test)?;
                Kernel::rbf_median_heuristic(&pooled)?
            }
        };

        // K_ij = k(x_i^tr, x_j^tr) — computed once by the shared parallel
        // engine and kept for re-weighting and post-fit diagnostics.
        let gram = GramMatrix::symmetric(kernel, train);
        let weights = solve_weights(&gram, train, test, config, obs)?;

        Ok(KernelMeanMatching {
            weights,
            train: train.clone(),
            gram,
        })
    }

    /// Re-solves the importance weights against an *updated* test
    /// population, reusing the train-side Gram matrix cached at fit time.
    ///
    /// This is the cheap re-weighting path for drifted operating points:
    /// the train-side Gram matrix — the dominant fit cost — is kept
    /// verbatim, and only the train×test cross block and the QP re-solve
    /// run fresh. The kernel stays whatever the original
    /// fit selected (including a median-heuristic choice), so the weights
    /// are exactly what [`KernelMeanMatching::fit_observed`] would produce
    /// for the new test set with that kernel pinned.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] for fewer than two test rows.
    /// - [`StatsError::DimensionMismatch`] if the column count differs from
    ///   the fitted training set.
    /// - [`StatsError::InvalidParameter`] for non-finite test entries.
    /// - Parameter and solver errors from the underlying QP.
    pub fn reweight_observed(
        &mut self,
        test: &Matrix,
        config: &KmmConfig,
        obs: &RunContext,
    ) -> Result<(), StatsError> {
        let nte = test.nrows();
        if nte < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: nte,
            });
        }
        if test.ncols() != self.train.ncols() {
            return Err(StatsError::DimensionMismatch {
                expected: self.train.ncols(),
                got: test.ncols(),
            });
        }
        check_finite_matrix("test", test)?;

        self.weights = solve_weights(&self.gram, &self.train, test, config, obs)?;
        Ok(())
    }

    /// The fitted importance weights, one per training row.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The kernel used for matching (after any median-heuristic selection).
    pub fn kernel(&self) -> Kernel {
        self.gram.kernel()
    }

    /// Weighted maximum-mean-discrepancy objective value (lower is better);
    /// useful for diagnostics and ablations.
    ///
    /// The train-side quadratic term reuses the Gram matrix cached at fit
    /// time; only the test-side and cross blocks are evaluated fresh.
    pub fn mmd_objective(&self, test: &Matrix) -> Result<f64, StatsError> {
        if test.ncols() != self.train.ncols() {
            return Err(StatsError::DimensionMismatch {
                expected: self.train.ncols(),
                got: test.ncols(),
            });
        }
        let ntr = self.train.nrows() as f64;
        let nte = test.nrows() as f64;
        // ‖(1/ntr)Σβ_iφ(x_i) − (1/nte)Σφ(z_j)‖² expanded in kernel terms.
        let kernel = self.gram.kernel();
        let term_tr = self.gram.weighted_quadratic(&self.weights);
        let cross = GramMatrix::cross(kernel, &self.train, test)?;
        let term_cross = sidefp_parallel::reduce_sum(self.train.nrows(), |i| {
            self.weights[i] * cross.row(i).iter().sum::<f64>()
        });
        let term_te = GramMatrix::symmetric(kernel, test).total_sum();
        Ok(term_tr / (ntr * ntr) - 2.0 * term_cross / (ntr * nte) + term_te / (nte * nte))
    }

    /// Importance-weighted mean of the training rows — KMM's estimate of
    /// the testing distribution's location using training-support mass.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DegenerateData`] if all weights are zero.
    pub fn weighted_train_mean(&self) -> Result<Vec<f64>, StatsError> {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::DegenerateData(
                "all importance weights are zero".into(),
            ));
        }
        let mut mean = vec![0.0; self.train.ncols()];
        for (row, w) in self.train.rows_iter().zip(&self.weights) {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += w * v;
            }
        }
        for m in &mut mean {
            *m /= total;
        }
        Ok(mean)
    }

    /// Iterated **kernel mean shift** (the paper's §2.2 "mean shifting
    /// method"): translates the full training population toward the testing
    /// operating point.
    ///
    /// Each round fits KMM between the current (translated) training set
    /// and the test set, then translates all training rows by the gap
    /// between the importance-weighted and the raw training mean. Because a
    /// single KMM round can only move mass within the training support,
    /// iteration lets the population bridge operating-point drifts larger
    /// than the training spread — exactly the regime where a stale
    /// simulation model meets a drifted foundry. The output keeps the
    /// *training* population's spread (the paper: "m″_p will have a
    /// wider-spread distribution as compared to m′_p") with the *testing*
    /// population's location.
    ///
    /// # Errors
    ///
    /// Propagates KMM fitting errors.
    pub fn mean_shift_population(
        train: &Matrix,
        test: &Matrix,
        config: &KmmConfig,
        max_iterations: usize,
    ) -> Result<Matrix, StatsError> {
        Self::mean_shift_population_observed(train, test, config, max_iterations, {
            &RunContext::new()
        })
    }

    /// [`KernelMeanMatching::mean_shift_population`] reporting each
    /// iteration's QP rescues into the caller's [`RunContext`] `obs`
    /// instead of a throwaway one.
    ///
    /// # Errors
    ///
    /// Propagates KMM fitting errors.
    pub fn mean_shift_population_observed(
        train: &Matrix,
        test: &Matrix,
        config: &KmmConfig,
        max_iterations: usize,
        obs: &RunContext,
    ) -> Result<Matrix, StatsError> {
        let mut shifted = train.clone();
        // Convergence scale: translation below 2% of the per-column test
        // spread stops the iteration.
        let test_scale: Vec<f64> = (0..test.ncols())
            .map(|j| descriptive::std_dev(&test.col(j)).unwrap_or(0.0).max(1e-12))
            .collect();
        for _ in 0..max_iterations {
            let kmm = KernelMeanMatching::fit_observed(&shifted, test, config, obs)?;
            let weighted = kmm.weighted_train_mean()?;
            let raw = shifted.column_means();
            let delta: Vec<f64> = weighted.iter().zip(&raw).map(|(w, r)| w - r).collect();
            let significant = delta
                .iter()
                .zip(&test_scale)
                .any(|(d, s)| d.abs() > 0.02 * s);
            if !significant {
                break;
            }
            for i in 0..shifted.nrows() {
                let row = shifted.row_mut(i);
                for (v, d) in row.iter_mut().zip(&delta) {
                    *v += d;
                }
            }
        }
        Ok(shifted)
    }
}

/// Solves the KMM QP (paper Eq. 4) of `train` against `test` on the cached
/// train-side `gram`, recording an uncertified solve into `obs` (a counter
/// bump plus a `rescue` trace event) so `RunHealth` surfaces it.
fn solve_weights(
    gram: &GramMatrix,
    train: &Matrix,
    test: &Matrix,
    config: &KmmConfig,
    obs: &RunContext,
) -> Result<Vec<f64>, StatsError> {
    let ntr = train.nrows();
    let root = (ntr as f64).sqrt();
    let qp_cfg = BoxBandConfig {
        upper: config.upper,
        band: config.band.unwrap_or((root - 1.0) / root),
        max_iter: config.max_iter,
        ..BoxBandConfig::default()
    };
    // κ_i = (n_tr / n_te) Σ_j k(x_i^tr, x_j^te)  (paper Eq. 4)
    let ratio = ntr as f64 / test.nrows() as f64;
    let cross = GramMatrix::cross(gram.kernel(), train, test)?;
    let kappa: Vec<f64> =
        sidefp_parallel::map_indexed(ntr, |i| ratio * cross.row(i).iter().sum::<f64>());
    let sol = solve_box_band(gram.matrix(), &kappa, &qp_cfg)?;
    if !sol.converged {
        if sol.final_delta <= QP_RELAXED_FACTOR * qp_cfg.tol {
            obs.record_qp_relaxed();
            obs.trace_rescue("qp", "relaxed", 1);
        } else {
            obs.record_qp_nonconverged();
            obs.trace_rescue("qp", "nonconverged", 1);
        }
    }
    Ok(sol.beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultivariateNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Training ~ N(0,1), test ~ N(1.5, 0.8): classic covariate shift.
    fn shifted_sets(seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tr = MultivariateNormal::independent(vec![0.0], &[1.0])
            .unwrap()
            .sample_matrix(&mut rng, 80);
        let te = MultivariateNormal::independent(vec![1.5], &[0.8])
            .unwrap()
            .sample_matrix(&mut rng, 60);
        (tr, te)
    }

    #[test]
    fn weights_shift_mass_toward_test_region() {
        let (tr, te) = shifted_sets(1);
        let kmm = KernelMeanMatching::fit(&tr, &te, &KmmConfig::default()).unwrap();
        // Weighted training mean should approach the test mean.
        let total: f64 = kmm.weights().iter().sum();
        let wmean: f64 = tr
            .col(0)
            .iter()
            .zip(kmm.weights())
            .map(|(x, w)| x * w)
            .sum::<f64>()
            / total;
        let raw_mean = descriptive::mean(&tr.col(0)).unwrap();
        let te_mean = descriptive::mean(&te.col(0)).unwrap();
        assert!(
            (wmean - te_mean).abs() < (raw_mean - te_mean).abs(),
            "weighted mean {wmean} not closer to test mean {te_mean} than raw {raw_mean}"
        );
    }

    #[test]
    fn weighted_mmd_not_worse_than_uniform() {
        let (tr, te) = shifted_sets(2);
        let kmm = KernelMeanMatching::fit(&tr, &te, &KmmConfig::default()).unwrap();
        let weighted = kmm.mmd_objective(&te).unwrap();
        let uniform = KernelMeanMatching {
            weights: vec![1.0; tr.nrows()],
            gram: GramMatrix::symmetric(kmm.kernel(), &tr),
            train: tr.clone(),
        }
        .mmd_objective(&te)
        .unwrap();
        assert!(
            weighted <= uniform + 1e-9,
            "weighted MMD {weighted} > uniform {uniform}"
        );
    }

    #[test]
    fn identical_distributions_give_near_uniform_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mvn = MultivariateNormal::independent(vec![0.0], &[1.0]).unwrap();
        let tr = mvn.sample_matrix(&mut rng, 60);
        let te = mvn.sample_matrix(&mut rng, 60);
        let kmm = KernelMeanMatching::fit(&tr, &te, &KmmConfig::default()).unwrap();
        let mean_w = descriptive::mean(kmm.weights()).unwrap();
        // Mean near 1 and no extreme concentration.
        assert!((mean_w - 1.0).abs() < 0.5, "mean weight {mean_w}");
        let max_w = kmm.weights().iter().cloned().fold(0.0_f64, f64::max);
        assert!(max_w < 10.0, "weight spike {max_w} on identical data");
    }

    #[test]
    fn rejects_bad_input() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let one = Matrix::from_rows(&[&[0.0]]).unwrap();
        let wide = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(KernelMeanMatching::fit(&one, &a, &KmmConfig::default()).is_err());
        assert!(KernelMeanMatching::fit(&a, &one, &KmmConfig::default()).is_err());
        assert!(KernelMeanMatching::fit(&a, &wide, &KmmConfig::default()).is_err());
        let bad_kernel = KmmConfig {
            kernel: Some(Kernel::Rbf { gamma: -1.0 }),
            ..Default::default()
        };
        assert!(KernelMeanMatching::fit(&a, &a, &bad_kernel).is_err());
    }

    #[test]
    fn rejects_zero_column_matrices_with_typed_error() {
        let empty = Matrix::zeros(3, 0);
        match KernelMeanMatching::fit(&empty, &empty, &KmmConfig::default()) {
            Err(StatsError::InvalidParameter { name: "train", .. }) => {}
            other => panic!("expected InvalidParameter for train, got {other:?}"),
        }
        // Column-count mismatch stays a DimensionMismatch.
        let a = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        match KernelMeanMatching::fit(&a, &empty, &KmmConfig::default()) {
            Err(StatsError::DimensionMismatch {
                expected: 1,
                got: 0,
            }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_inputs_with_typed_error() {
        let (tr, te) = shifted_sets(9);
        let mut bad_tr = tr.clone();
        bad_tr[(3, 0)] = f64::NAN;
        match KernelMeanMatching::fit(&bad_tr, &te, &KmmConfig::default()) {
            Err(StatsError::InvalidParameter { name: "train", .. }) => {}
            other => panic!("expected InvalidParameter for train, got {other:?}"),
        }
        let mut bad_te = te.clone();
        bad_te[(0, 0)] = f64::INFINITY;
        match KernelMeanMatching::fit(&tr, &bad_te, &KmmConfig::default()) {
            Err(StatsError::InvalidParameter { name: "test", .. }) => {}
            other => panic!("expected InvalidParameter for test, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_qp_budget_records_fallback_not_error() {
        let (tr, te) = shifted_sets(10);
        let obs = RunContext::new();
        let cfg = KmmConfig {
            max_iter: 1,
            ..Default::default()
        };
        let kmm = KernelMeanMatching::fit_observed(&tr, &te, &cfg, &obs).unwrap();
        assert_eq!(kmm.weights().len(), tr.nrows());
        let health = obs.solver_health();
        assert!(
            health.qp_relaxed + health.qp_nonconverged > 0,
            "one-iteration QP budget must be recorded as a fallback"
        );
        // The fallback also leaves a structured trace event.
        assert!(obs
            .trace_events()
            .iter()
            .any(|r| matches!(r.event, sidefp_obs::TraceEvent::Rescue { solver: "qp", .. })));
    }

    #[test]
    fn reweight_matches_fresh_fit_with_pinned_kernel() {
        let (tr, te1) = shifted_sets(11);
        let mut rng = StdRng::seed_from_u64(42);
        let te2 = MultivariateNormal::independent(vec![2.0], &[0.7])
            .unwrap()
            .sample_matrix(&mut rng, 60);
        let mut kmm = KernelMeanMatching::fit(&tr, &te1, &KmmConfig::default()).unwrap();
        let kernel = kmm.kernel();
        kmm.reweight_observed(&te2, &KmmConfig::default(), &RunContext::new())
            .unwrap();
        // A from-scratch fit with the same kernel pinned runs the identical
        // Gram build + QP trajectory, so the weights must agree bitwise.
        let fresh = KernelMeanMatching::fit(
            &tr,
            &te2,
            &KmmConfig {
                kernel: Some(kernel),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(kmm.weights().len(), fresh.weights().len());
        for (a, b) in kmm.weights().iter().zip(fresh.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reweight_rejects_bad_inputs() {
        let (tr, te) = shifted_sets(16);
        let mut kmm = KernelMeanMatching::fit(&tr, &te, &KmmConfig::default()).unwrap();
        let one = Matrix::from_rows(&[&[0.0]]).unwrap();
        assert!(kmm
            .reweight_observed(&one, &KmmConfig::default(), &RunContext::new())
            .is_err());
        let wide = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(kmm
            .reweight_observed(&wide, &KmmConfig::default(), &RunContext::new())
            .is_err());
        let mut bad = te.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(kmm
            .reweight_observed(&bad, &KmmConfig::default(), &RunContext::new())
            .is_err());
    }

    #[test]
    fn weights_respect_box() {
        let (tr, te) = shifted_sets(8);
        let cfg = KmmConfig {
            upper: 3.0,
            ..Default::default()
        };
        let kmm = KernelMeanMatching::fit(&tr, &te, &cfg).unwrap();
        for w in kmm.weights() {
            assert!(*w >= -1e-9 && *w <= 3.0 + 1e-9, "weight {w} outside box");
        }
    }
}
