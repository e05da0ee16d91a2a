//! Trusted-region boundaries (B1–B5 and the golden baseline).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sidefp_linalg::Matrix;
use sidefp_stats::{
    DetectionLabel, Kernel, OneClassSvm, OneClassSvmConfig, StandardScaler, StatsError,
};

use crate::config::BoundaryConfig;
use crate::dataset::DuttPopulation;
use crate::CoreError;
use sidefp_stats::ConfusionCounts;

/// A trusted region in fingerprint space: a standardizer plus a 1-class
/// SVM, trained on one of the S1–S5 populations (or golden-chip data).
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_core::boundary::TrustedBoundary;
/// use sidefp_core::config::BoundaryConfig;
/// use sidefp_stats::DetectionLabel;
///
/// # fn main() -> Result<(), sidefp_core::CoreError> {
/// // A 5x10 grid of trusted fingerprints.
/// let trusted = Matrix::from_fn(50, 2, |i, _| 0.0)
///     .rows_iter()
///     .enumerate()
///     .map(|(i, _)| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
///     .collect::<Vec<_>>();
/// let trusted = Matrix::from_samples(&trusted)?;
/// let b = TrustedBoundary::fit("B1", &trusted, &BoundaryConfig::default(), 7)?;
/// assert_eq!(b.classify(&[0.45, 0.2])?, DetectionLabel::TrojanFree);
/// assert_eq!(b.classify(&[50.0, -50.0])?, DetectionLabel::TrojanInfested);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TrustedBoundary {
    name: &'static str,
    scaler: StandardScaler,
    svm: OneClassSvm,
}

impl TrustedBoundary {
    /// Trains a boundary on the rows of `trusted`.
    ///
    /// Populations larger than `config.train_cap` are uniformly subsampled
    /// (seeded) before SVM training; the scaler is always fitted on the
    /// full population.
    ///
    /// # Errors
    ///
    /// Propagates scaler/SVM fitting errors.
    pub fn fit(
        name: &'static str,
        trusted: &Matrix,
        config: &BoundaryConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::fit_observed(name, trusted, config, seed, &sidefp_obs::RunContext::new())
    }

    /// [`TrustedBoundary::fit`] recording into `obs` instead of the
    /// throwaway context: the fit runs under a `boundary.{name}`
    /// timing span (which also emits `stage_start`/`stage_end` trace
    /// events) and any SMO rescue of the inner SVM solve lands on the
    /// run's own solver-health counters.
    ///
    /// # Errors
    ///
    /// Same as [`TrustedBoundary::fit`].
    pub fn fit_observed(
        name: &'static str,
        trusted: &Matrix,
        config: &BoundaryConfig,
        seed: u64,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, CoreError> {
        let _span = obs.span(format!("boundary.{name}"));
        let (scaler, train, svm_config) =
            Self::prepare(trusted, config, seed, OneClassSvmConfig::default().max_iter)?;
        let svm = OneClassSvm::fit_observed(&train, &svm_config, obs)?;
        Ok(TrustedBoundary { name, scaler, svm })
    }

    /// Refits this boundary on a fresh trusted population, warm-starting
    /// the SMO solve from the current dual solution when its shape still
    /// matches the new (standardized, possibly subsampled) training set.
    ///
    /// This is the incremental-recalibration path of the streaming-lot
    /// driver: under mild drift the old dual variables are already close to
    /// feasible for the shifted population, so the warm solve converges in
    /// a fraction of the cold budget. `max_iter` bounds the SMO iterations
    /// — pass a tight budget first and inspect
    /// [`TrustedBoundary::solve_iterations`] to detect exhaustion before
    /// escalating to the full budget. Falls back to a cold start (still
    /// within `max_iter`) when the new training set's row count differs
    /// from the length of the current dual vector.
    ///
    /// # Errors
    ///
    /// Propagates scaler/SVM fitting errors.
    pub fn refit_warm_observed(
        &self,
        trusted: &Matrix,
        config: &BoundaryConfig,
        seed: u64,
        max_iter: usize,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, CoreError> {
        let _span = obs.span(format!("boundary.{}.refit", self.name));
        let (scaler, train, svm_config) = Self::prepare(trusted, config, seed, max_iter.max(1))?;
        let start = self.svm.dual_alpha();
        let svm = if start.len() == train.nrows() {
            OneClassSvm::fit_warm_observed(&train, &svm_config, start, obs)?
        } else {
            OneClassSvm::fit_observed(&train, &svm_config, obs)?
        };
        Ok(TrustedBoundary {
            name: self.name,
            scaler,
            svm,
        })
    }

    /// Shared fit preparation: full-population scaler, seeded subsample to
    /// the training cap, and kernel selection. Only the subsample is
    /// standardized — the transform is elementwise, so this equals
    /// subsampling the standardized population without materializing it.
    fn prepare(
        trusted: &Matrix,
        config: &BoundaryConfig,
        seed: u64,
        max_iter: usize,
    ) -> Result<(StandardScaler, Matrix, OneClassSvmConfig), CoreError> {
        let scaler = StandardScaler::fit(trusted)?;

        let train = if trusted.nrows() > config.train_cap {
            let mut rng = StdRng::seed_from_u64(seed);
            let indices: Vec<usize> = (0..config.train_cap)
                .map(|_| rng.random_range(0..trusted.nrows()))
                .collect();
            scaler.transform(&trusted.select_rows(&indices))?
        } else {
            scaler.transform(trusted)?
        };

        let kernel = match config.gamma {
            Some(g) => Kernel::Rbf { gamma: g },
            // Degenerate populations (e.g. a regression that collapsed to a
            // constant) have no pairwise spread; fall back to unit gamma in
            // standardized space — the resulting point-like trusted region
            // honestly reflects the degenerate training data.
            None => Kernel::rbf_median_heuristic(&train).unwrap_or(Kernel::Rbf { gamma: 1.0 }),
        };
        let svm_config = OneClassSvmConfig {
            nu: config.nu,
            kernel,
            max_iter,
            ..Default::default()
        };
        Ok((scaler, train, svm_config))
    }

    /// Reassembles a boundary from a standardizer and a fitted SVM (the
    /// artifact-load path): no training happens, the parts are adopted
    /// as-is after a dimension cross-check.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the scaler and SVM were
    /// fitted on different dimensions.
    pub fn from_parts(
        name: &'static str,
        scaler: StandardScaler,
        svm: OneClassSvm,
    ) -> Result<Self, CoreError> {
        if scaler.dim() != svm.input_dim() {
            return Err(CoreError::InvalidConfig {
                name: "boundary",
                reason: format!(
                    "scaler dimension {} vs SVM dimension {}",
                    scaler.dim(),
                    svm.input_dim()
                ),
            });
        }
        Ok(TrustedBoundary { name, scaler, svm })
    }

    /// The fitted standardizer (artifact-export path).
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// The fitted one-class SVM (artifact-export path).
    pub fn svm(&self) -> &OneClassSvm {
        &self.svm
    }

    /// Boundary label ("B1" … "B5", "golden").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// SMO iterations spent by the most recent solve (0 on approximation
    /// paths, which bypass the SMO loop entirely).
    ///
    /// A value at or above the configured iteration budget means the solve
    /// stopped on budget exhaustion rather than convergence — the signal
    /// the recalibration ladder uses to escalate a tight warm refit.
    pub fn solve_iterations(&self) -> usize {
        self.svm.solve_iterations()
    }

    /// Signed decision value in standardized space (positive = trusted).
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error for wrong fingerprint length.
    pub fn decision(&self, fingerprint: &[f64]) -> Result<f64, CoreError> {
        let z = self.scaler.transform_sample(fingerprint)?;
        Ok(self.svm.decision_function(&z)?)
    }

    /// Allocation-free form of [`TrustedBoundary::decision`]: standardizes
    /// the fingerprint into `scratch` (which must have the boundary's
    /// dimension) and evaluates the SVM there. The value is bit-identical
    /// to [`TrustedBoundary::decision`]; the steady state performs zero
    /// heap allocations.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error for wrong fingerprint or scratch
    /// length, and rejects non-finite fingerprints.
    pub fn decision_into(
        &self,
        fingerprint: &[f64],
        scratch: &mut [f64],
    ) -> Result<f64, CoreError> {
        self.scaler.transform_sample_into(fingerprint, scratch)?;
        Ok(self.svm.decision_function(scratch)?)
    }

    /// Decision values for a population: the single path every
    /// population is scored through. `rows` holds `out.len()`
    /// fingerprints row-major; each is standardized into `z_scratch`
    /// (resized to fit, so a reused buffer stops allocating once it has
    /// grown) with the arithmetic of
    /// [`StandardScaler::transform_sample_into`], and the SVM scores the
    /// standardized block at once through
    /// [`OneClassSvm::decision_rows_into`] — for an exact RBF expansion the
    /// fused packed-GEMM kernel sum, split over the workers. Values are
    /// bit-identical to [`TrustedBoundary::decision`] row by row, at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when `rows` does not hold
    /// exactly `out.len()` rows of the boundary's dimension, and rejects
    /// non-finite fingerprints.
    pub fn decision_rows_into(
        &self,
        rows: &[f64],
        z_scratch: &mut Vec<f64>,
        out: &mut [f64],
    ) -> Result<(), CoreError> {
        let (n, d) = (out.len(), self.scaler.dim());
        if rows.len() != n * d {
            return Err(StatsError::DimensionMismatch {
                expected: n * d,
                got: rows.len(),
            }
            .into());
        }
        z_scratch.clear();
        z_scratch.resize(n * d, 0.0);
        for (row, z) in rows.chunks_exact(d).zip(z_scratch.chunks_exact_mut(d)) {
            self.scaler.transform_sample_into(row, z)?;
        }
        let z = Matrix::from_vec(n, d, std::mem::take(z_scratch))?;
        let scored = self.svm.decision_rows_into(&z, out);
        *z_scratch = z.into_vec();
        Ok(scored?)
    }

    /// Classifies a fingerprint.
    ///
    /// # Errors
    ///
    /// Same as [`TrustedBoundary::decision`].
    pub fn classify(&self, fingerprint: &[f64]) -> Result<DetectionLabel, CoreError> {
        Ok(label(self.decision(fingerprint)?))
    }

    /// Labels every fingerprint row of `fingerprints` through
    /// [`TrustedBoundary::decision_rows_into`].
    ///
    /// # Errors
    ///
    /// Same as [`TrustedBoundary::decision_rows_into`].
    pub(crate) fn classify_rows(
        &self,
        fingerprints: &Matrix,
    ) -> Result<Vec<DetectionLabel>, CoreError> {
        let mut out = vec![0.0; fingerprints.nrows()];
        self.decision_rows_into(fingerprints.as_slice(), &mut Vec::new(), &mut out)?;
        Ok(out.into_iter().map(label).collect())
    }

    /// Evaluates the boundary on a labeled DUTT population, producing the
    /// paper's FP/FN tally.
    ///
    /// # Errors
    ///
    /// Propagates classification errors.
    pub fn evaluate(&self, population: &DuttPopulation) -> Result<ConfusionCounts, CoreError> {
        let mut counts = ConfusionCounts::new();
        let predicted = self.classify_rows(population.fingerprints())?;
        for (truth, predicted) in population.labels().iter().zip(predicted) {
            counts.record(*truth, predicted);
        }
        Ok(counts)
    }
}

/// The verdict a decision value stands for: inside or on the boundary is
/// trusted.
fn label(decision: f64) -> DetectionLabel {
    if decision >= 0.0 {
        DetectionLabel::TrojanFree
    } else {
        DetectionLabel::TrojanInfested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_stats::MultivariateNormal;

    fn blob(center: f64, n: usize, seed: u64) -> Matrix {
        let mvn = MultivariateNormal::independent(vec![center, center], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_matrix(&mut rng, n)
    }

    #[test]
    fn boundary_accepts_center_rejects_far() {
        let b =
            TrustedBoundary::fit("B1", &blob(0.0, 120, 1), &BoundaryConfig::default(), 1).unwrap();
        assert_eq!(b.name(), "B1");
        assert_eq!(b.classify(&[0.0, 0.0]).unwrap(), DetectionLabel::TrojanFree);
        assert_eq!(
            b.classify(&[8.0, 8.0]).unwrap(),
            DetectionLabel::TrojanInfested
        );
        assert!(b.decision(&[0.0, 0.0]).unwrap() > b.decision(&[4.0, 4.0]).unwrap());
    }

    #[test]
    fn subsampling_cap_still_learns() {
        let cfg = BoundaryConfig {
            train_cap: 60,
            ..Default::default()
        };
        let b = TrustedBoundary::fit("B2", &blob(0.0, 5000, 2), &cfg, 2).unwrap();
        assert_eq!(b.classify(&[0.0, 0.0]).unwrap(), DetectionLabel::TrojanFree);
        assert_eq!(
            b.classify(&[9.0, -9.0]).unwrap(),
            DetectionLabel::TrojanInfested
        );
    }

    #[test]
    fn explicit_gamma_is_respected() {
        // A huge gamma makes the kernel ultra-local: even nearby points
        // outside the training set fall outside the region.
        let cfg = BoundaryConfig {
            gamma: Some(500.0),
            nu: 0.05,
            ..Default::default()
        };
        let tight = TrustedBoundary::fit("Bt", &blob(0.0, 60, 3), &cfg, 3).unwrap();
        let loose_cfg = BoundaryConfig {
            gamma: Some(0.05),
            nu: 0.05,
            ..Default::default()
        };
        let loose = TrustedBoundary::fit("Bl", &blob(0.0, 60, 3), &loose_cfg, 3).unwrap();
        // The loose boundary accepts a moderately distant point the tight
        // one rejects.
        let probe = [1.6, -1.6];
        assert!(loose.decision(&probe).unwrap() > tight.decision(&probe).unwrap());
    }

    #[test]
    fn evaluate_produces_paper_counts() {
        use sidefp_linalg::Matrix;
        let b =
            TrustedBoundary::fit("B3", &blob(0.0, 150, 4), &BoundaryConfig::default(), 4).unwrap();
        // 2 free devices near the center, 2 infested far away.
        let fps =
            Matrix::from_rows(&[&[0.0, 0.0], &[0.2, -0.1], &[7.0, 7.0], &[-7.0, 7.0]]).unwrap();
        let pcms = Matrix::zeros(4, 1);
        let pop = crate::dataset::DuttPopulation::new(
            fps,
            pcms,
            vec![
                DetectionLabel::TrojanFree,
                DetectionLabel::TrojanFree,
                DetectionLabel::TrojanInfested,
                DetectionLabel::TrojanInfested,
            ],
            vec!["free", "free", "amplitude", "frequency"],
        )
        .unwrap();
        let counts = b.evaluate(&pop).unwrap();
        assert_eq!(counts.false_positives(), 0);
        assert_eq!(counts.false_negatives(), 0);
        assert_eq!(counts.infested_total(), 2);
        assert_eq!(counts.free_total(), 2);
    }

    #[test]
    fn warm_refit_tracks_a_small_shift_cheaper_than_cold() {
        let cfg = BoundaryConfig::default();
        let obs = sidefp_obs::RunContext::new();
        let b = TrustedBoundary::fit("B3", &blob(0.0, 120, 11), &cfg, 11).unwrap();
        let shifted = blob(0.15, 120, 11);
        let warm = b
            .refit_warm_observed(&shifted, &cfg, 11, 200_000, &obs)
            .unwrap();
        let cold = TrustedBoundary::fit("B3", &shifted, &cfg, 11).unwrap();
        // The warm solve starts near the optimum and must not work harder
        // than the cold one; both land on the same trusted region.
        assert!(warm.solve_iterations() <= cold.solve_iterations());
        assert_eq!(
            warm.classify(&[0.15, 0.15]).unwrap(),
            DetectionLabel::TrojanFree
        );
        assert_eq!(
            warm.classify(&[9.0, 9.0]).unwrap(),
            DetectionLabel::TrojanInfested
        );
        let probe = [1.0, -0.5];
        assert!((warm.decision(&probe).unwrap() - cold.decision(&probe).unwrap()).abs() < 0.2);
    }

    #[test]
    fn warm_refit_with_starved_budget_reports_exhaustion() {
        let cfg = BoundaryConfig::default();
        let obs = sidefp_obs::RunContext::new();
        let b = TrustedBoundary::fit("B4", &blob(0.0, 100, 12), &cfg, 12).unwrap();
        let starved = b
            .refit_warm_observed(&blob(2.0, 100, 13), &cfg, 13, 1, &obs)
            .unwrap();
        // One iteration cannot absorb a two-sigma shift: the budget signal
        // must fire so the recalibration ladder can escalate.
        assert!(starved.solve_iterations() >= 1);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let b =
            TrustedBoundary::fit("B1", &blob(0.0, 50, 5), &BoundaryConfig::default(), 5).unwrap();
        assert!(b.classify(&[1.0]).is_err());
        let mut z = Vec::new();
        let mut out = [0.0; 2];
        assert!(b.decision_rows_into(&[1.0; 3], &mut z, &mut out).is_err());
        assert!(b
            .decision_rows_into(&[0.0, f64::NAN, 0.0, 0.0], &mut z, &mut out)
            .is_err());
        // A failed call leaves the scratch usable.
        b.decision_rows_into(&[0.0; 4], &mut z, &mut out).unwrap();
        assert_eq!(out[0].to_bits(), b.decision(&[0.0, 0.0]).unwrap().to_bits());
    }

    /// Scores `population` through `decision_rows_into` in self-check
    /// blocks with one reused pair of buffers, at 1 and 2 workers, and
    /// checks every value against the pointwise path bit for bit.
    fn assert_blocked_scoring_matches_pointwise(b: &TrustedBoundary, population: &Matrix) {
        let block = crate::stages::recalibrate::SELF_CHECK_BLOCK;
        let (n, d) = (population.nrows(), population.ncols());
        assert!(n > 2 * block && n % block != 0, "need 2 blocks and a tail");
        let pointwise: Vec<u64> = population
            .rows_iter()
            .map(|row| b.decision(row).unwrap().to_bits())
            .collect();
        assert!(pointwise.iter().any(|v| f64::from_bits(*v) < 0.0));
        assert!(pointwise.iter().any(|v| f64::from_bits(*v) >= 0.0));
        for threads in [1, 2] {
            let blocked = sidefp_parallel::with_threads(threads, || {
                let (mut z, mut out) = (Vec::new(), vec![0.0; block]);
                let mut all = Vec::with_capacity(n);
                for rows in population.as_slice().chunks(block * d) {
                    let out = &mut out[..rows.len() / d];
                    b.decision_rows_into(rows, &mut z, out).unwrap();
                    all.extend(out.iter().map(|v| v.to_bits()));
                }
                all
            });
            assert_eq!(blocked.len(), n);
            for (i, (p, q)) in pointwise.iter().zip(&blocked).enumerate() {
                assert_eq!(p, q, "row {i} at {threads} workers");
            }
        }
    }

    #[test]
    fn batched_exact_boundary_matches_pointwise_bitwise() {
        let cfg = BoundaryConfig {
            train_cap: 400,
            ..Default::default()
        };
        let b = TrustedBoundary::fit("B5", &blob(0.0, 10_000, 31), &cfg, 31).unwrap();
        assert_blocked_scoring_matches_pointwise(&b, &blob(0.3, 10_000, 32));
    }

    /// An over-cap fit (the B2/B5 shape: subsampled to `train_cap`) pinned
    /// to the bits it produced when the whole population was still
    /// standardized before subsampling.
    #[test]
    fn over_cap_fit_is_pinned() {
        let cfg = BoundaryConfig {
            train_cap: 300,
            ..Default::default()
        };
        let b = TrustedBoundary::fit("B2", &blob(0.5, 5000, 21), &cfg, 21).unwrap();
        assert_eq!(b.svm().rho().to_bits(), 0x3fd2_3005_b30b_52b1);
        assert_eq!(b.svm().support_vector_count(), 19);
        for (probe, bits) in [
            ([0.5, 0.5], 0x3f81_36c1_d6ce_dca0_u64),
            ([1.7, -0.4], 0x3f88_8169_d16b_d460),
            ([-2.5, 3.0], 0xbfc1_1232_3de7_7cb9),
        ] {
            assert_eq!(b.decision(&probe).unwrap().to_bits(), bits, "{probe:?}");
        }
    }
}
