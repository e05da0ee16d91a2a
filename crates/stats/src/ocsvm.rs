use sidefp_linalg::{gemm, vecops, Matrix};
use sidefp_obs::RunContext;

use crate::qp::{SmoConfig, SmoSolver};
use crate::state::SvmState;
use crate::{check_finite_matrix, check_finite_slice, Kernel, KernelRows, StatsError};

/// Relaxation factor for accepting a best-effort SMO solution: a KKT gap
/// within 100× the configured tolerance is still a usable boundary.
const SMO_RELAXED_FACTOR: f64 = 100.0;

/// Configuration for the ν-one-class SVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneClassSvmConfig {
    /// Fraction `ν ∈ (0, 1]` of training points allowed outside the
    /// boundary (and lower bound on the fraction of support vectors).
    pub nu: f64,
    /// Kernel; the RBF kernel yields the closed boundaries the paper's
    /// trusted regions need.
    pub kernel: Kernel,
    /// KKT tolerance of the SMO solver.
    pub tol: f64,
    /// Iteration budget of the SMO solver.
    pub max_iter: usize,
}

impl Default for OneClassSvmConfig {
    fn default() -> Self {
        OneClassSvmConfig {
            nu: 0.05,
            kernel: Kernel::Rbf { gamma: 1.0 },
            tol: 1e-6,
            max_iter: 200_000,
        }
    }
}

/// A trained ν-one-class SVM (Schölkopf et al. 2001).
///
/// This is the paper's one-class classifier: trained on a trusted
/// fingerprint population, its decision boundary *is* the trusted region
/// (B1–B5). Points with non-negative decision value are inliers
/// (Trojan-free verdict); negative values are outliers (Trojan-infested
/// verdict).
///
/// The dual `min ½αᵀQα, Σα = 1, 0 ≤ α_i ≤ 1/(νn)` is solved with the
/// workspace [`SmoSolver`]; the offset `ρ` is recovered as the average
/// decision value over on-margin support vectors.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct OneClassSvm {
    /// Support vectors, one per row: `f(x) = Σ_l coeffs_l · k(points_l, x) − ρ`.
    points: Matrix,
    /// Dual coefficients `α_l`, one per support vector.
    coeffs: Vec<f64>,
    rho: f64,
    kernel: Kernel,
    input_dim: usize,
    trained_nu: f64,
    /// The full dual iterate `α` the SMO solve ended on (all `n` training
    /// coordinates, not just support vectors). Preserved so a later fit on
    /// drifted-but-similar data can warm-start near this optimum.
    dual_alpha: Vec<f64>,
    /// Pairwise SMO updates the fit consumed — the cost figure warm-start
    /// callers compare against a cold fit.
    solve_iterations: usize,
}

impl OneClassSvm {
    /// Fits the SVM to the rows of `data`, reporting any SMO rescue into a
    /// throwaway [`RunContext`].
    ///
    /// Pipeline code should prefer [`OneClassSvm::fit_observed`], which
    /// reports into the run's own [`RunContext`].
    ///
    /// # Errors
    ///
    /// See [`OneClassSvm::fit_observed`].
    pub fn fit(data: &Matrix, config: &OneClassSvmConfig) -> Result<Self, StatsError> {
        Self::fit_observed(data, config, &RunContext::new())
    }

    /// Fits the SVM to the rows of `data`, reporting any relaxed-tolerance
    /// SMO acceptance or non-convergence into `obs` (a counter bump plus a
    /// `rescue` trace event).
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] for fewer than two rows.
    /// - [`StatsError::InvalidParameter`] for zero feature columns,
    ///   non-finite training entries, `ν ∉ (0, 1]` or invalid kernel
    ///   hyper-parameters.
    pub fn fit_observed(
        data: &Matrix,
        config: &OneClassSvmConfig,
        obs: &RunContext,
    ) -> Result<Self, StatsError> {
        Self::fit_inner(data, config, None, obs)
    }

    /// Fits the SVM warm-started from a previous fit's preserved dual
    /// iterate (see [`OneClassSvm::dual_alpha`]). The SMO solve starts from
    /// `start` (repaired onto the feasible simplex) instead of the sparse
    /// one-class start, typically converging in a small fraction of a cold fit's
    /// updates when `data` has only drifted from the population `start` was
    /// fitted on. The fitted model is defined by the KKT conditions of the
    /// *new* data, so a converged warm fit matches a cold fit up to solver
    /// tolerance.
    ///
    /// # Errors
    ///
    /// All of [`OneClassSvm::fit_observed`]'s errors, plus
    /// [`StatsError::DimensionMismatch`] when `start.len()` differs from the
    /// row count of `data` and [`StatsError::InvalidParameter`] for
    /// non-finite start entries.
    pub fn fit_warm_observed(
        data: &Matrix,
        config: &OneClassSvmConfig,
        start: &[f64],
        obs: &RunContext,
    ) -> Result<Self, StatsError> {
        if start.len() != data.nrows() {
            return Err(StatsError::DimensionMismatch {
                expected: data.nrows(),
                got: start.len(),
            });
        }
        Self::fit_inner(data, config, Some(start), obs)
    }

    fn fit_inner(
        data: &Matrix,
        config: &OneClassSvmConfig,
        warm: Option<&[f64]>,
        obs: &RunContext,
    ) -> Result<Self, StatsError> {
        let n = data.nrows();
        if n < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: n });
        }
        if data.ncols() == 0 {
            return Err(StatsError::InvalidParameter {
                name: "data",
                reason: "matrix has no feature columns".into(),
            });
        }
        check_finite_matrix("data", data)?;
        if !(config.nu > 0.0 && config.nu <= 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "nu",
                reason: format!("must be in (0, 1], got {}", config.nu),
            });
        }
        config.kernel.validate()?;

        let c = 1.0 / (config.nu * n as f64);
        let smo_cfg = SmoConfig {
            upper: c,
            tol: config.tol,
            max_iter: config.max_iter,
        };
        // Kernel rows are computed the first time the solve reads them.
        let smo = SmoSolver::new(smo_cfg);
        let mut rows = KernelRows::new(config.kernel, data);
        let sol = match warm {
            Some(start) => smo.solve_with_start(&mut rows, start)?,
            None => smo.solve_with(&mut rows)?,
        };
        if !sol.converged {
            // Best-effort boundary: record how far from optimal it stopped
            // so RunHealth surfaces the fallback instead of hiding it.
            if sol.kkt_gap <= SMO_RELAXED_FACTOR * config.tol {
                obs.record_smo_relaxed();
                obs.trace_rescue("smo", "relaxed", 1);
            } else {
                obs.record_smo_nonconverged();
                obs.trace_rescue("smo", "nonconverged", 1);
            }
        }

        // ρ = mean decision value over margin SVs (0 < α < C); fall back to
        // all SVs if none are strictly inside the box.
        let margin_tol = c * 1e-6;
        let margin: Vec<usize> = (0..n)
            .filter(|&i| sol.alpha[i] > margin_tol && sol.alpha[i] < c - margin_tol)
            .collect();
        let candidates: Vec<usize> = if margin.is_empty() {
            (0..n).filter(|&i| sol.alpha[i] > margin_tol).collect()
        } else {
            margin
        };
        if candidates.is_empty() {
            return Err(StatsError::DegenerateData(
                "one-class SVM produced no support vectors".into(),
            ));
        }
        let rho =
            candidates.iter().map(|&i| sol.gradient[i]).sum::<f64>() / candidates.len() as f64;

        // Keep only support vectors for prediction.
        let sv_idx: Vec<usize> = (0..n).filter(|&i| sol.alpha[i] > margin_tol).collect();
        Ok(OneClassSvm {
            points: data.select_rows(&sv_idx),
            coeffs: sv_idx.iter().map(|&i| sol.alpha[i]).collect(),
            rho,
            kernel: config.kernel,
            input_dim: data.ncols(),
            trained_nu: config.nu,
            solve_iterations: sol.iterations,
            dual_alpha: sol.alpha,
        })
    }

    /// Signed decision value: positive inside the trusted region, negative
    /// outside, zero on the boundary.
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] on length mismatch.
    /// - [`StatsError::InvalidParameter`] for non-finite query entries
    ///   (a NaN would otherwise poison the kernel sum silently).
    pub fn decision_function(&self, x: &[f64]) -> Result<f64, StatsError> {
        if x.len() != self.input_dim {
            return Err(StatsError::DimensionMismatch {
                expected: self.input_dim,
                got: x.len(),
            });
        }
        check_finite_slice("x", x)?;
        Ok(self.decision_value(x))
    }

    /// Decision value without the dimension check (callers validate once).
    fn decision_value(&self, x: &[f64]) -> f64 {
        self.kernel_expansion_sum(x) - self.rho
    }

    /// The support-vector kernel sum `Σ αᵢ·k(svᵢ, x)`.
    ///
    /// Each pair runs the GEMM-form identity
    /// `‖x − sv‖² = (‖x‖² + ‖sv‖² − 2⟨sv, x⟩).max(0)` with ascending
    /// single-accumulator folds for the dot products and norms — the exact
    /// per-element arithmetic of the fused batch path
    /// ([`gemm::rbf_expansion_rows`]), so pointwise and batched decisions
    /// are bit-identical. The exponentials are batched over fixed-size
    /// strips of support vectors: each strip's exponents land in a stack
    /// buffer and go through the 4-wide element-wise [`vecops::exp_mut`],
    /// which gives the scalar map instruction-level parallelism the
    /// one-at-a-time loop cannot. The weighted sum folds strips in
    /// ascending support-vector order with a single accumulator.
    fn kernel_expansion_sum(&self, x: &[f64]) -> f64 {
        const DECISION_STRIP: usize = 64;
        let (points, coeffs) = (&self.points, &self.coeffs);
        let Kernel::Rbf { gamma } = self.kernel;
        let n = points.nrows();
        let xn = gemm::self_dot_fold(x);
        let mut buf = [0.0f64; DECISION_STRIP];
        let mut sum = 0.0;
        let mut start = 0;
        while start < n {
            let len = DECISION_STRIP.min(n - start);
            for (t, b) in buf[..len].iter_mut().enumerate() {
                let sv = points.row(start + t);
                let mut p = 0.0;
                for (s, q) in sv.iter().zip(x) {
                    p += s * q;
                }
                *b = -gamma * (xn + gemm::self_dot_fold(sv) - 2.0 * p).max(0.0);
            }
            vecops::exp_mut(&mut buf[..len]);
            for (a, b) in coeffs[start..start + len].iter().zip(&buf[..len]) {
                sum += a * b;
            }
            start += len;
        }
        sum
    }

    /// `true` if the point falls inside (or on) the trusted boundary.
    ///
    /// # Errors
    ///
    /// Same as [`OneClassSvm::decision_function`]: dimension mismatch or
    /// non-finite query entries.
    pub fn is_inlier(&self, x: &[f64]) -> Result<bool, StatsError> {
        Ok(self.decision_function(x)? >= 0.0)
    }

    /// Decision values for every row of `x`, scored in parallel.
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] if `x`'s column count differs
    ///   from the fitted dimension.
    /// - [`StatsError::InvalidParameter`] for non-finite query entries.
    pub fn decision_rows(&self, x: &Matrix) -> Result<Vec<f64>, StatsError> {
        if x.ncols() != self.input_dim {
            return Err(StatsError::DimensionMismatch {
                expected: self.input_dim,
                got: x.ncols(),
            });
        }
        check_finite_matrix("x", x)?;
        Ok(sidefp_parallel::map_indexed(x.nrows(), |i| {
            self.decision_value(x.row(i))
        }))
    }

    /// Allocation-free form of [`OneClassSvm::decision_rows`]: writes the
    /// decision value of every row of `x` into `out`. RBF kernel
    /// expansions run through the chunked packed-GEMM driver
    /// ([`gemm::rbf_expansion_rows`]), whose scratch comes from the
    /// thread-local panel pool; every other kernel uses the
    /// allocation-free pointwise sum. Either way the steady state performs
    /// zero heap allocations and values are bit-identical to
    /// [`OneClassSvm::decision_rows`].
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] if `x`'s column count differs
    ///   from the fitted dimension or `out.len() != x.nrows()`.
    /// - [`StatsError::InvalidParameter`] for non-finite query entries.
    pub fn decision_rows_into(&self, x: &Matrix, out: &mut [f64]) -> Result<(), StatsError> {
        if x.ncols() != self.input_dim {
            return Err(StatsError::DimensionMismatch {
                expected: self.input_dim,
                got: x.ncols(),
            });
        }
        if out.len() != x.nrows() {
            return Err(StatsError::DimensionMismatch {
                expected: x.nrows(),
                got: out.len(),
            });
        }
        check_finite_matrix("x", x)?;
        // Batched fused path: chunked packed GEMM + RBF epilogue +
        // coefficient fold, bit-identical to the pointwise path (both run
        // the same identity-form per-pair arithmetic).
        let Kernel::Rbf { gamma } = self.kernel;
        gemm::rbf_expansion_rows(x, &self.points, gamma, &self.coeffs, out);
        for o in out.iter_mut() {
            *o -= self.rho;
        }
        Ok(())
    }

    /// Number of support vectors (training points with `α` above the
    /// margin tolerance).
    pub fn support_vector_count(&self) -> usize {
        self.points.nrows()
    }

    /// Offset ρ of the decision function.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The ν the model was trained with.
    pub fn nu(&self) -> f64 {
        self.trained_nu
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The preserved full dual iterate `α` the fit ended on — the warm
    /// start for [`OneClassSvm::fit_warm_observed`] on a drifted
    /// population.
    pub fn dual_alpha(&self) -> &[f64] {
        &self.dual_alpha
    }

    /// Pairwise SMO updates the fit consumed. Warm-started refits report
    /// far fewer iterations than cold fits on similar data; callers use the
    /// ratio as a recalibration cost metric.
    pub fn solve_iterations(&self) -> usize {
        self.solve_iterations
    }

    /// Exports the fitted model as a plain-data [`SvmState`] snapshot for
    /// persistence; [`OneClassSvm::from_state`] reconstructs a model whose
    /// decision values are bit-identical.
    pub fn export_state(&self) -> SvmState {
        SvmState {
            points: self.points.clone(),
            coeffs: self.coeffs.clone(),
            rho: self.rho,
            kernel: self.kernel,
            input_dim: self.input_dim,
            nu: self.trained_nu,
            dual_alpha: self.dual_alpha.clone(),
            solve_iterations: self.solve_iterations,
        }
    }

    /// Reconstructs a trained model from an exported [`SvmState`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when the state is
    /// internally inconsistent: kernel hyper-parameters invalid,
    /// `ν ∉ (0, 1]`, non-finite values, or support-vector shapes that
    /// disagree with `input_dim`.
    pub fn from_state(state: SvmState) -> Result<Self, StatsError> {
        state.kernel.validate()?;
        if !(state.nu > 0.0 && state.nu <= 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "svm.nu",
                reason: format!("must be in (0, 1], got {}", state.nu),
            });
        }
        if !state.rho.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "svm.rho",
                reason: "must be finite".into(),
            });
        }
        if state.input_dim == 0 {
            return Err(StatsError::InvalidParameter {
                name: "svm.input_dim",
                reason: "must be positive".into(),
            });
        }
        crate::state::require_finite("svm.dual_alpha", &state.dual_alpha)?;
        let (points, coeffs) = (state.points, state.coeffs);
        if points.nrows() == 0 || points.ncols() != state.input_dim {
            return Err(StatsError::InvalidParameter {
                name: "svm.points",
                reason: format!(
                    "expected non-empty {}-column matrix, got {}x{}",
                    state.input_dim,
                    points.nrows(),
                    points.ncols()
                ),
            });
        }
        if coeffs.len() != points.nrows() {
            return Err(StatsError::InvalidParameter {
                name: "svm.coeffs",
                reason: format!("{} coeffs vs {} points", coeffs.len(), points.nrows()),
            });
        }
        check_finite_matrix("svm.points", &points)?;
        crate::state::require_finite("svm.coeffs", &coeffs)?;
        Ok(OneClassSvm {
            points,
            coeffs,
            rho: state.rho,
            kernel: state.kernel,
            input_dim: state.input_dim,
            trained_nu: state.nu,
            dual_alpha: state.dual_alpha,
            solve_iterations: state.solve_iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultivariateNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob(n: usize, seed: u64) -> Matrix {
        let mvn = MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_matrix(&mut rng, n)
    }

    fn default_cfg() -> OneClassSvmConfig {
        OneClassSvmConfig {
            nu: 0.1,
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        }
    }

    #[test]
    fn center_in_far_point_out() {
        let svm = OneClassSvm::fit(&blob(100, 1), &default_cfg()).unwrap();
        assert!(svm.is_inlier(&[0.0, 0.0]).unwrap());
        assert!(!svm.is_inlier(&[10.0, 10.0]).unwrap());
        assert!(svm.decision_function(&[0.0, 0.0]).unwrap() > 0.0);
        assert!(svm.decision_function(&[10.0, 10.0]).unwrap() < 0.0);
    }

    #[test]
    fn nu_controls_training_rejection_rate() {
        let data = blob(200, 2);
        for nu in [0.05, 0.2] {
            let cfg = OneClassSvmConfig {
                nu,
                kernel: Kernel::Rbf { gamma: 0.5 },
                ..Default::default()
            };
            let svm = OneClassSvm::fit(&data, &cfg).unwrap();
            let rejected = data
                .rows_iter()
                .filter(|row| svm.decision_function(row).unwrap() < 0.0)
                .count() as f64
                / 200.0;
            // ν is an upper bound on the rejection fraction (within slack).
            assert!(
                rejected <= nu + 0.07,
                "nu = {nu}: rejected fraction {rejected}"
            );
        }
    }

    #[test]
    fn higher_nu_rejects_more() {
        let data = blob(200, 3);
        let count_rejected = |nu: f64| {
            let cfg = OneClassSvmConfig {
                nu,
                kernel: Kernel::Rbf { gamma: 0.5 },
                ..Default::default()
            };
            let svm = OneClassSvm::fit(&data, &cfg).unwrap();
            data.rows_iter()
                .filter(|row| svm.decision_function(row).unwrap() < 0.0)
                .count()
        };
        assert!(count_rejected(0.3) >= count_rejected(0.02));
    }

    #[test]
    fn support_vector_fraction_at_least_nu() {
        let data = blob(100, 4);
        let cfg = OneClassSvmConfig {
            nu: 0.2,
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let svm = OneClassSvm::fit(&data, &cfg).unwrap();
        // ν-property: at least ν·n support vectors.
        assert!(
            svm.support_vector_count() as f64 >= 0.2 * 100.0 - 1.0,
            "only {} SVs",
            svm.support_vector_count()
        );
    }

    #[test]
    fn separates_shifted_cluster() {
        // Train on cluster at origin; points from a cluster at (4, 4) must
        // be rejected.
        let train = blob(150, 5);
        let svm = OneClassSvm::fit(&train, &default_cfg()).unwrap();
        let mvn = MultivariateNormal::independent(vec![4.0, 4.0], &[0.5, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let outliers = mvn.sample_matrix(&mut rng, 50);
        let rejected = outliers
            .rows_iter()
            .filter(|row| svm.decision_function(row).unwrap() < 0.0)
            .count();
        assert!(rejected >= 48, "only {rejected}/50 outliers rejected");
    }

    #[test]
    fn rejects_bad_parameters() {
        let data = blob(20, 7);
        let bad_nu = OneClassSvmConfig {
            nu: 0.0,
            ..default_cfg()
        };
        assert!(OneClassSvm::fit(&data, &bad_nu).is_err());
        let bad_nu2 = OneClassSvmConfig {
            nu: 1.5,
            ..default_cfg()
        };
        assert!(OneClassSvm::fit(&data, &bad_nu2).is_err());
        let bad_kernel = OneClassSvmConfig {
            kernel: Kernel::Rbf { gamma: -1.0 },
            ..default_cfg()
        };
        assert!(OneClassSvm::fit(&data, &bad_kernel).is_err());
        assert!(OneClassSvm::fit(&Matrix::zeros(1, 2), &default_cfg()).is_err());
    }

    #[test]
    fn rejects_zero_column_matrix_with_typed_error() {
        match OneClassSvm::fit(&Matrix::zeros(5, 0), &default_cfg()) {
            Err(StatsError::InvalidParameter { name: "data", .. }) => {}
            other => panic!("expected InvalidParameter for data, got {other:?}"),
        }
    }

    #[test]
    fn decision_rows_rejects_wrong_width() {
        let svm = OneClassSvm::fit(&blob(30, 11), &default_cfg()).unwrap();
        match svm.decision_rows(&Matrix::zeros(4, 3)) {
            Err(StatsError::DimensionMismatch {
                expected: 2,
                got: 3,
            }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn decision_rows_identical_at_any_thread_count() {
        let data = blob(60, 12);
        let svm = OneClassSvm::fit(&data, &default_cfg()).unwrap();
        let reference = sidefp_parallel::with_threads(1, || svm.decision_rows(&data).unwrap());
        for threads in [2, 8] {
            let got = sidefp_parallel::with_threads(threads, || svm.decision_rows(&data).unwrap());
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn decision_dimension_checked() {
        let svm = OneClassSvm::fit(&blob(30, 8), &default_cfg()).unwrap();
        assert!(svm.decision_function(&[1.0]).is_err());
        assert!(svm.is_inlier(&[1.0]).is_err());
        assert_eq!(svm.input_dim(), 2);
    }

    #[test]
    fn non_finite_training_data_rejected() {
        let mut data = blob(30, 13);
        data[(4, 1)] = f64::NAN;
        match OneClassSvm::fit(&data, &default_cfg()) {
            Err(StatsError::InvalidParameter { name: "data", .. }) => {}
            other => panic!("expected InvalidParameter for data, got {other:?}"),
        }
        let mut data = blob(30, 13);
        data[(0, 0)] = f64::INFINITY;
        assert!(OneClassSvm::fit(&data, &default_cfg()).is_err());
    }

    #[test]
    fn non_finite_queries_rejected() {
        let svm = OneClassSvm::fit(&blob(30, 14), &default_cfg()).unwrap();
        match svm.decision_function(&[f64::NAN, 0.0]) {
            Err(StatsError::InvalidParameter { name: "x", .. }) => {}
            other => panic!("expected InvalidParameter for x, got {other:?}"),
        }
        assert!(svm.is_inlier(&[0.0, f64::NEG_INFINITY]).is_err());
        let mut batch = Matrix::zeros(3, 2);
        batch[(2, 0)] = f64::NAN;
        assert!(svm.decision_rows(&batch).is_err());
    }

    #[test]
    fn decision_rows_into_value_identical_to_decision_rows() {
        let data = blob(80, 15);
        let svm = OneClassSvm::fit(&data, &default_cfg()).unwrap();
        let queries = blob(40, 16);
        let batch = svm.decision_rows(&queries).unwrap();
        let mut out = vec![0.0; queries.nrows()];
        for _ in 0..2 {
            svm.decision_rows_into(&queries, &mut out).unwrap();
            assert_eq!(out, batch);
        }
        assert!(svm
            .decision_rows_into(&Matrix::zeros(2, 3), &mut out)
            .is_err());
        assert!(svm.decision_rows_into(&queries, &mut [0.0; 2]).is_err());
        let mut bad = queries.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(svm.decision_rows_into(&bad, &mut out).is_err());
    }

    #[test]
    fn decision_rows_matches_pointwise() {
        let data = blob(40, 9);
        let svm = OneClassSvm::fit(&data, &default_cfg()).unwrap();
        let batch = svm.decision_rows(&data).unwrap();
        for (i, row) in data.rows_iter().enumerate() {
            assert_eq!(batch[i], svm.decision_function(row).unwrap());
        }
    }

    #[test]
    fn accessors() {
        let svm = OneClassSvm::fit(&blob(30, 10), &default_cfg()).unwrap();
        assert_eq!(svm.nu(), 0.1);
        assert!(svm.rho().is_finite());
        assert!(svm.support_vector_count() > 0);
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let data = blob(120, 19);
        let queries = blob(30, 20);
        let svm = OneClassSvm::fit(&data, &default_cfg()).unwrap();
        let state = svm.export_state();
        let rebuilt = OneClassSvm::from_state(state.clone()).unwrap();
        assert_eq!(rebuilt.export_state(), state);
        assert_eq!(rebuilt.rho(), svm.rho());
        assert_eq!(rebuilt.support_vector_count(), svm.support_vector_count());
        for row in queries.rows_iter() {
            let a = svm.decision_function(row).unwrap();
            let b = rebuilt.decision_function(row).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_states_are_rejected() {
        let svm = OneClassSvm::fit(&blob(40, 21), &default_cfg()).unwrap();
        let good = svm.export_state();

        let mut s = good.clone();
        s.nu = 0.0;
        assert!(OneClassSvm::from_state(s).is_err());

        let mut s = good.clone();
        s.rho = f64::NAN;
        assert!(OneClassSvm::from_state(s).is_err());

        let mut s = good.clone();
        s.input_dim = 3; // disagrees with the 2-column support points
        assert!(OneClassSvm::from_state(s).is_err());

        let mut s = good.clone();
        s.coeffs.pop();
        assert!(OneClassSvm::from_state(s).is_err());

        let mut s = good;
        s.points[(0, 0)] = f64::INFINITY;
        assert!(OneClassSvm::from_state(s).is_err());
    }
}
