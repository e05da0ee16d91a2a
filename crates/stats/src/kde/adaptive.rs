use rand::{Rng, SeedableRng};
use sidefp_linalg::{Matrix, Workspace};

use crate::kde::Epanechnikov;
use crate::state::{KdeState, ScalerState};
use crate::{check_finite_matrix, descriptive, StandardScaler, StatsError};

/// Squared distance `‖(x − row)/h‖²` capped at the Epanechnikov support
/// boundary: once the partial sum reaches 1 the kernel is exactly zero no
/// matter what the remaining coordinates contribute, so the loop exits
/// early. Value-identical to the full sum for every caller that feeds the
/// result to [`Epanechnikov::density_from_sq_radius`].
#[inline]
fn sq_radius_capped(row: &[f64], x: &[f64], inv_h: f64) -> f64 {
    let mut t2 = 0.0;
    for (a, b) in row.iter().zip(x) {
        let u = (b - a) * inv_h;
        t2 += u * u;
        if t2 >= 1.0 {
            return t2;
        }
    }
    t2
}

/// Configuration for [`AdaptiveKde`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KdeConfig {
    /// Global bandwidth `h` in standardized units; `None` selects the
    /// normal-reference rule scaled for the Epanechnikov kernel.
    pub bandwidth: Option<f64>,
    /// Tail-sensitivity exponent `α ∈ [0, 1]` of the local bandwidth
    /// factors `λ_i = (f(x_i)/g)^{−α}` (paper Eq. 8). `α = 0` disables
    /// adaptivity; larger `α` widens the kernels at the distribution tails.
    pub alpha: f64,
}

impl Default for KdeConfig {
    /// Normal-reference bandwidth with the paper's moderate adaptivity
    /// (`α = 0.5`, the conventional choice in Silverman 1986).
    fn default() -> Self {
        KdeConfig {
            bandwidth: None,
            alpha: 0.5,
        }
    }
}

/// Adaptive Epanechnikov kernel density estimator (paper §2.5, Eq. 5–9).
///
/// Fitting computes a pilot fixed-bandwidth estimate at every observation,
/// derives per-observation bandwidth factors `λ_i` from the ratio of pilot
/// density to its geometric mean, and exposes both the adaptive density
/// `f_α` and a sampler for generating large tail-faithful synthetic
/// populations — the paper's boundary-enhancement step (S1→S2, S4→S5).
///
/// Internally the data is standardized; densities are reported in original
/// units (divided by the Jacobian of the standardization).
#[derive(Debug, Clone)]
pub struct AdaptiveKde {
    scaler: StandardScaler,
    /// Observations in z-space.
    z: Matrix,
    kernel: Epanechnikov,
    bandwidth: f64,
    lambdas: Vec<f64>,
    /// Precomputed `(h·λ_i)^d`, the per-observation density denominators
    /// (saves one `powf` per kernel term in the scoring hot loop).
    hl_pow_d: Vec<f64>,
    /// Product of the per-column standard deviations (density Jacobian).
    jacobian: f64,
}

impl AdaptiveKde {
    /// Fits the estimator to the rows of `data`.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] for fewer than two rows.
    /// - [`StatsError::InvalidParameter`] for `α ∉ [0, 1]`, non-positive
    ///   bandwidth or non-finite observations.
    /// - [`StatsError::DegenerateData`] when every pilot density vanishes
    ///   (all local bandwidths would be undefined).
    pub fn fit(data: &Matrix, config: &KdeConfig) -> Result<Self, StatsError> {
        Self::fit_observed(data, config, &sidefp_obs::RunContext::new())
    }

    /// [`AdaptiveKde::fit`] reporting any floored pilot densities into the
    /// caller's [`RunContext`](sidefp_obs::RunContext) `obs` (a counter
    /// bump plus a `rescue` trace event) instead of a throwaway one.
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveKde::fit`].
    pub fn fit_observed(
        data: &Matrix,
        config: &KdeConfig,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, StatsError> {
        if data.nrows() < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: data.nrows(),
            });
        }
        if !(0.0..=1.0).contains(&config.alpha) {
            return Err(StatsError::InvalidParameter {
                name: "alpha",
                reason: format!("must be in [0, 1], got {}", config.alpha),
            });
        }
        check_finite_matrix("data", data)?;
        let scaler = StandardScaler::fit(data)?;
        let z = scaler.transform(data)?;
        let d = data.ncols();
        let m = data.nrows();
        let kernel = Epanechnikov::new(d);

        let bandwidth = match config.bandwidth {
            Some(h) if h > 0.0 && h.is_finite() => h,
            Some(h) => {
                return Err(StatsError::InvalidParameter {
                    name: "bandwidth",
                    reason: format!("must be positive and finite, got {h}"),
                })
            }
            // Normal-reference rule h = (4/((d+2)·M))^{1/(d+4)} on
            // standardized data, times the canonical Gaussian→Epanechnikov
            // bandwidth ratio (≈ 2.214 in 1-d; we use it for all d as the
            // usual practical compromise).
            None => {
                let gaussian = (4.0 / ((d as f64 + 2.0) * m as f64)).powf(1.0 / (d as f64 + 4.0));
                gaussian * 2.214
            }
        };

        // Pilot density (fixed bandwidth, Eq. 5) evaluated at every
        // observation, in z-space. The m × m evaluation is the fitting
        // hot spot; observations are scored in parallel.
        let pilot: Vec<f64> = sidefp_parallel::map_indexed(m, |i| {
            Self::density_fixed(&z, &kernel, bandwidth, z.row(i))
        });

        // Compact support can zero the pilot at isolated points; floor it
        // so the geometric mean and the λ exponents stay defined.
        let max_pilot = pilot.iter().cloned().fold(0.0_f64, f64::max);
        if max_pilot == 0.0 {
            return Err(StatsError::DegenerateData(
                "pilot density vanished everywhere; bandwidth too small".into(),
            ));
        }
        let floor = max_pilot * 1e-9;
        let degenerate = pilot.iter().filter(|p| **p < floor).count();
        if degenerate > 0 {
            // Previously a silent repair; surface it through RunHealth so a
            // too-small bandwidth is visible in the experiment report.
            obs.record_kde_pilot_floors(degenerate);
            obs.trace_rescue("kde", "pilot_floor", degenerate);
        }
        let floored: Vec<f64> = pilot.iter().map(|p| p.max(floor)).collect();

        // Geometric mean g (Eq. 9) and local factors λ_i (Eq. 8).
        let g = descriptive::geometric_mean(&floored)?;
        let lambdas: Vec<f64> = floored
            .iter()
            .map(|p| (p / g).powf(-config.alpha))
            .collect();

        let jacobian = scaler.stds().iter().product();
        let hl_pow_d = lambdas
            .iter()
            .map(|l| (bandwidth * l).powf(d as f64))
            .collect();

        Ok(AdaptiveKde {
            scaler,
            z,
            kernel,
            bandwidth,
            lambdas,
            hl_pow_d,
            jacobian,
        })
    }

    /// Fixed-bandwidth density in z-space (Eq. 5), summed with the
    /// deterministic blocked reduction.
    fn density_fixed(z: &Matrix, kernel: &Epanechnikov, h: f64, x: &[f64]) -> f64 {
        let m = z.nrows() as f64;
        let d = z.ncols() as f64;
        let inv_h = 1.0 / h;
        let sum = sidefp_parallel::reduce_sum(z.nrows(), |i| {
            kernel.density_from_sq_radius(sq_radius_capped(z.row(i), x, inv_h))
        });
        sum / (m * h.powf(d))
    }

    /// One adaptive kernel term `K_e((x − z_i)/(h·λ_i)) / (h·λ_i)^d`, the
    /// shared summand of every adaptive scoring path.
    #[inline]
    fn adaptive_term(&self, i: usize, zx: &[f64]) -> f64 {
        let hl = self.bandwidth * self.lambdas[i];
        let t2 = sq_radius_capped(self.z.row(i), zx, 1.0 / hl);
        self.kernel.density_from_sq_radius(t2) / self.hl_pow_d[i]
    }

    /// Dimension of the fitted data.
    pub fn dim(&self) -> usize {
        self.z.ncols()
    }

    /// Number of observations the estimator was fitted on.
    pub fn len(&self) -> usize {
        self.z.nrows()
    }

    /// `true` if fitted on no observations (never — fit requires ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.z.nrows() == 0
    }

    /// Global bandwidth `h` (standardized units).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Replaces the global bandwidth `h` without re-fitting the pilot
    /// density.
    ///
    /// The scaler, z-space observations, local factors `λ_i` and the
    /// density Jacobian are all kept; only `h` and the precomputed
    /// `(h·λ_i)^d` denominators change. This is the cheap bandwidth-refresh
    /// path for drifted populations whose *shape* (and hence pilot-density
    /// ratios) is still trusted while the spread calls for a different
    /// smoothing scale — it skips the O(m²) pilot evaluation entirely.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for a non-positive or
    /// non-finite bandwidth.
    pub fn refresh_bandwidth(&mut self, h: f64) -> Result<(), StatsError> {
        if !(h > 0.0 && h.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "bandwidth",
                reason: format!("must be positive and finite, got {h}"),
            });
        }
        let d = self.dim() as f64;
        self.bandwidth = h;
        self.hl_pow_d = self.lambdas.iter().map(|l| (h * l).powf(d)).collect();
        Ok(())
    }

    /// Local bandwidth factors `λ_i`, one per observation.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Adaptive density `f_α(x)` (Eq. 7) at a point in **original** units.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on length mismatch.
    pub fn density(&self, x: &[f64]) -> Result<f64, StatsError> {
        let zx = self.scaler.transform_sample(x)?;
        let m = self.len() as f64;
        let sum = sidefp_parallel::reduce_sum(self.len(), |i| self.adaptive_term(i, &zx));
        Ok(sum / m / self.jacobian)
    }

    /// Adaptive density at every row of `x`, scored in parallel (one
    /// worker block per chunk of query rows).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `x`'s column count
    /// differs from the fitted dimension.
    pub fn density_rows(&self, x: &Matrix) -> Result<Vec<f64>, StatsError> {
        if x.ncols() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: x.ncols(),
            });
        }
        let rows = sidefp_parallel::map_indexed(x.nrows(), |i| {
            self.density(x.row(i))
                .expect("row width checked against fitted dimension")
        });
        Ok(rows)
    }

    /// Allocation-free form of [`AdaptiveKde::density_rows`]: scores every
    /// row of `x` into `out`, borrowing scratch from `ws`. After the
    /// workspace pool has warmed up (one call), the steady state performs
    /// zero heap allocations. Values are bit-identical to
    /// [`AdaptiveKde::density_rows`] under the strict determinism policy
    /// (the default — see [`sidefp_parallel::with_determinism`]).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `x`'s column count
    /// differs from the fitted dimension or `out.len() != x.nrows()`.
    pub fn density_rows_into(
        &self,
        x: &Matrix,
        ws: &mut Workspace,
        out: &mut [f64],
    ) -> Result<(), StatsError> {
        if x.ncols() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: x.ncols(),
            });
        }
        if out.len() != x.nrows() {
            return Err(StatsError::DimensionMismatch {
                expected: x.nrows(),
                got: out.len(),
            });
        }
        let m = self.len() as f64;
        let mut zx = ws.take(self.dim());
        for (i, o) in out.iter_mut().enumerate() {
            self.scaler.transform_sample_into(x.row(i), &mut zx)?;
            let sum = sidefp_parallel::reduce_sum_seq(self.len(), |j| self.adaptive_term(j, &zx));
            *o = sum / m / self.jacobian;
        }
        ws.give(zx);
        Ok(())
    }

    /// [`AdaptiveKde::sample`] written into `out` without allocating; the
    /// one sampler behind every public sampling method.
    fn sample_into<R: Rng>(&self, rng: &mut R, out: &mut [f64]) {
        let i = rng.random_range(0..self.len());
        self.kernel.sample_into(rng, out);
        let hl = self.bandwidth * self.lambdas[i];
        let (means, stds) = (self.scaler.means(), self.scaler.stds());
        for (j, (o, c)) in out.iter_mut().zip(self.z.row(i)).enumerate() {
            *o = (c + hl * *o) * stds[j] + means[j];
        }
    }

    /// Draws one synthetic sample in original units: picks an observation
    /// uniformly and perturbs it by a kernel-distributed offset scaled by
    /// `h·λ_i`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.sample_into(rng, &mut out);
        out
    }

    /// Draws `n` synthetic samples as rows of a matrix.
    pub fn sample_matrix<R: Rng>(&self, rng: &mut R, n: usize) -> Matrix {
        let mut out = Matrix::zeros(n, self.dim());
        for i in 0..n {
            self.sample_into(rng, out.row_mut(i));
        }
        out
    }

    /// Draws `n` synthetic samples in parallel, row `i` from its own RNG
    /// stream `fork_seed(seed, i)` and written in place — the result is a
    /// pure function of the seed, identical at any thread count.
    pub fn sample_matrix_streamed(&self, seed: u64, n: usize) -> Matrix {
        let mut out = Matrix::zeros(n, self.dim());
        sidefp_parallel::for_each_row_mut(out.as_mut_slice(), self.dim(), |i, row| {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(sidefp_parallel::fork_seed(seed, i as u64));
            self.sample_into(&mut rng, row);
        });
        out
    }

    /// Exports the fitted estimator as a plain-data [`KdeState`] snapshot.
    ///
    /// Only the independent parameters are stored; the precomputed
    /// `(h·λ_i)^d` table and the standardization Jacobian are recomputed
    /// by [`AdaptiveKde::from_state`] with the identical arithmetic the
    /// fit uses, so densities and samples round-trip bit-exactly.
    pub fn export_state(&self) -> KdeState {
        KdeState {
            scaler: ScalerState {
                means: self.scaler.means().to_vec(),
                stds: self.scaler.stds().to_vec(),
            },
            z: self.z.clone(),
            bandwidth: self.bandwidth,
            lambdas: self.lambdas.clone(),
        }
    }

    /// Reconstructs a fitted estimator from an exported [`KdeState`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when the state is
    /// internally inconsistent: scaler/observation dimensions disagree,
    /// the bandwidth or a λ factor is not strictly positive and finite,
    /// or an observation is non-finite.
    pub fn from_state(state: KdeState) -> Result<Self, StatsError> {
        let scaler = StandardScaler::from_parts(state.scaler.means, state.scaler.stds)?;
        if state.z.nrows() < 2 || state.z.ncols() != scaler.dim() {
            return Err(StatsError::InvalidParameter {
                name: "kde.z",
                reason: format!(
                    "expected >= 2 rows of {} columns, got {}x{}",
                    scaler.dim(),
                    state.z.nrows(),
                    state.z.ncols()
                ),
            });
        }
        check_finite_matrix("kde.z", &state.z)?;
        if !(state.bandwidth > 0.0 && state.bandwidth.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "kde.bandwidth",
                reason: format!("must be positive and finite, got {}", state.bandwidth),
            });
        }
        if state.lambdas.len() != state.z.nrows() {
            return Err(StatsError::InvalidParameter {
                name: "kde.lambdas",
                reason: format!(
                    "{} lambdas vs {} observations",
                    state.lambdas.len(),
                    state.z.nrows()
                ),
            });
        }
        if state.lambdas.iter().any(|l| !(l.is_finite() && *l > 0.0)) {
            return Err(StatsError::InvalidParameter {
                name: "kde.lambdas",
                reason: "every lambda must be strictly positive and finite".into(),
            });
        }
        let d = state.z.ncols();
        // Recomputed exactly as in `fit_observed` / `refresh_bandwidth`,
        // so the reconstructed estimator is bit-identical to the original.
        let jacobian = scaler.stds().iter().product();
        let hl_pow_d = state
            .lambdas
            .iter()
            .map(|l| (state.bandwidth * l).powf(d as f64))
            .collect();
        Ok(AdaptiveKde {
            scaler,
            kernel: Epanechnikov::new(d),
            z: state.z,
            bandwidth: state.bandwidth,
            lambdas: state.lambdas,
            hl_pow_d,
            jacobian,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaussian_blob(n: usize, seed: u64) -> Matrix {
        let mvn = crate::MultivariateNormal::independent(vec![1.0, -2.0], &[0.5, 1.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_matrix(&mut rng, n)
    }

    #[test]
    fn default_bandwidth_is_positive() {
        let kde = AdaptiveKde::fit(&gaussian_blob(50, 1), &KdeConfig::default()).unwrap();
        assert!(kde.bandwidth() > 0.0);
        assert_eq!(kde.dim(), 2);
        assert_eq!(kde.len(), 50);
        assert!(!kde.is_empty());
    }

    #[test]
    fn density_higher_at_center_than_tail() {
        let kde = AdaptiveKde::fit(&gaussian_blob(200, 2), &KdeConfig::default()).unwrap();
        let center = kde.density(&[1.0, -2.0]).unwrap();
        let tail = kde.density(&[4.0, 4.0]).unwrap();
        assert!(center > tail, "center {center} vs tail {tail}");
    }

    #[test]
    fn alpha_zero_gives_unit_lambdas() {
        let cfg = KdeConfig {
            alpha: 0.0,
            ..Default::default()
        };
        let kde = AdaptiveKde::fit(&gaussian_blob(80, 3), &cfg).unwrap();
        for l in kde.lambdas() {
            assert!((l - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn adaptive_lambdas_widen_at_tails() {
        let data = gaussian_blob(300, 4);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        // The observation with the smallest pilot density must have the
        // largest lambda. Proxy: lambda range is non-trivial.
        let lmin = kde.lambdas().iter().cloned().fold(f64::INFINITY, f64::min);
        let lmax = kde
            .lambdas()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            lmax > lmin * 1.05,
            "lambdas nearly constant: {lmin}..{lmax}"
        );
        // Geometric-mean normalization keeps lambdas around 1.
        let glog: f64 =
            kde.lambdas().iter().map(|l| l.ln()).sum::<f64>() / kde.lambdas().len() as f64;
        assert!(glog.abs() < 0.5, "log-mean lambda {glog}");
    }

    #[test]
    fn samples_follow_source_distribution() {
        let data = gaussian_blob(400, 5);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let synth = kde.sample_matrix(&mut rng, 8000);
        let sm = synth.column_means();
        let dm = data.column_means();
        assert!((sm[0] - dm[0]).abs() < 0.1, "mean0 {} vs {}", sm[0], dm[0]);
        assert!((sm[1] - dm[1]).abs() < 0.2, "mean1 {} vs {}", sm[1], dm[1]);
        // KDE inflates variance by roughly h²·Var(kernel); allow slack.
        let sv = synth.covariance().unwrap();
        let dv = data.covariance().unwrap();
        assert!(sv[(0, 0)] > dv[(0, 0)] * 0.9 && sv[(0, 0)] < dv[(0, 0)] * 1.6);
    }

    #[test]
    fn synthetic_tails_extend_beyond_data() {
        // The entire point of the enhancement step: synthetic samples reach
        // beyond the observed min/max.
        let data = gaussian_blob(100, 7);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let synth = kde.sample_matrix(&mut rng, 20_000);
        let dmax = descriptive::max(&data.col(0)).unwrap();
        let smax = descriptive::max(&synth.col(0)).unwrap();
        assert!(smax > dmax, "synthetic max {smax} <= data max {dmax}");
        let dmin = descriptive::min(&data.col(0)).unwrap();
        let smin = descriptive::min(&synth.col(0)).unwrap();
        assert!(smin < dmin, "synthetic min {smin} >= data min {dmin}");
    }

    #[test]
    fn rejects_invalid_parameters() {
        let data = gaussian_blob(20, 9);
        let bad_alpha = KdeConfig {
            alpha: 1.5,
            ..Default::default()
        };
        assert!(AdaptiveKde::fit(&data, &bad_alpha).is_err());
        let bad_h = KdeConfig {
            bandwidth: Some(-1.0),
            ..Default::default()
        };
        assert!(AdaptiveKde::fit(&data, &bad_h).is_err());
        assert!(AdaptiveKde::fit(&Matrix::zeros(1, 2), &KdeConfig::default()).is_err());
    }

    #[test]
    fn rejects_non_finite_observations() {
        let mut data = gaussian_blob(20, 14);
        data[(5, 1)] = f64::NAN;
        match AdaptiveKde::fit(&data, &KdeConfig::default()) {
            Err(StatsError::InvalidParameter { name: "data", .. }) => {}
            other => panic!("expected InvalidParameter for data, got {other:?}"),
        }
    }

    #[test]
    fn tiny_bandwidth_keeps_lambdas_defined() {
        // Minuscule bandwidth on a wide-spread set: every observation's
        // pilot is carried by its own kernel term, the λ_i stay positive and
        // finite, and any pilots below the floor are reported through the
        // diagnostics counter rather than silently repaired.
        let data =
            Matrix::from_rows(&[&[0.0], &[0.0001], &[0.0002], &[0.00015], &[1.0e6]]).unwrap();
        let cfg = KdeConfig {
            bandwidth: Some(1e-6),
            alpha: 0.5,
        };
        let obs = sidefp_obs::RunContext::new();
        let kde = AdaptiveKde::fit_observed(&data, &cfg, &obs).unwrap();
        assert!(kde.lambdas().iter().all(|l| l.is_finite() && *l > 0.0));
        // Every pilot keeps its own kernel term, so the min/max pilot ratio
        // is bounded by m and the 1e-9 floor cannot fire on this data; the
        // per-run counter stays readable and exactly zero.
        assert_eq!(obs.solver_health().kde_pilot_floors, 0);
    }

    #[test]
    fn refresh_bandwidth_matches_refit_with_same_pilots() {
        // Refreshing h on a fitted estimator must reproduce a from-scratch
        // fit at the new h *up to the pilot stage*: same scaler, same
        // z-space rows. The lambdas intentionally stay at the old pilot's
        // values, so compare against a fit whose pilots coincide (alpha = 0
        // makes lambdas identically 1, removing the pilot dependence).
        let data = gaussian_blob(80, 19);
        let cfg = KdeConfig {
            bandwidth: Some(0.4),
            alpha: 0.0,
        };
        let mut kde = AdaptiveKde::fit(&data, &cfg).unwrap();
        kde.refresh_bandwidth(0.6).unwrap();
        let refit = AdaptiveKde::fit(
            &data,
            &KdeConfig {
                bandwidth: Some(0.6),
                alpha: 0.0,
            },
        )
        .unwrap();
        assert_eq!(kde.bandwidth(), 0.6);
        for (a, b) in data.rows_iter().zip(data.rows_iter()) {
            let da = kde.density(a).unwrap();
            let db = refit.density(b).unwrap();
            assert!((da - db).abs() < 1e-12, "{da} vs {db}");
        }
    }

    #[test]
    fn refresh_bandwidth_keeps_lambdas_and_rejects_bad_h() {
        let data = gaussian_blob(60, 20);
        let mut kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let lambdas = kde.lambdas().to_vec();
        kde.refresh_bandwidth(kde.bandwidth() * 1.5).unwrap();
        assert_eq!(kde.lambdas(), lambdas.as_slice());
        assert!(kde.density(&[1.0, -2.0]).unwrap().is_finite());
        assert!(kde.refresh_bandwidth(0.0).is_err());
        assert!(kde.refresh_bandwidth(-1.0).is_err());
        assert!(kde.refresh_bandwidth(f64::NAN).is_err());
    }

    #[test]
    fn density_dimension_checked() {
        let kde = AdaptiveKde::fit(&gaussian_blob(30, 10), &KdeConfig::default()).unwrap();
        assert!(kde.density(&[1.0]).is_err());
        assert!(kde.density_rows(&Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn density_rows_into_value_identical_to_density_rows() {
        // The workspace path must reproduce the allocating path bit for
        // bit on seeded inputs (strict determinism policy, the default).
        let data = gaussian_blob(150, 21);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let queries = gaussian_blob(64, 22);
        let batch = kde.density_rows(&queries).unwrap();
        let mut ws = sidefp_linalg::Workspace::new();
        let mut out = vec![0.0; queries.nrows()];
        // Twice: the second call runs on the warmed (reused) scratch.
        for _ in 0..2 {
            kde.density_rows_into(&queries, &mut ws, &mut out).unwrap();
            assert_eq!(out, batch);
        }
        // Error paths: wrong query width, wrong output length.
        assert!(kde
            .density_rows_into(&Matrix::zeros(2, 1), &mut ws, &mut out)
            .is_err());
        assert!(kde
            .density_rows_into(&queries, &mut ws, &mut [0.0; 3])
            .is_err());
    }

    #[test]
    fn density_rows_matches_pointwise() {
        let data = gaussian_blob(60, 11);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let batch = kde.density_rows(&data).unwrap();
        for (i, row) in data.rows_iter().enumerate() {
            assert_eq!(batch[i], kde.density(row).unwrap(), "row {i}");
        }
    }

    #[test]
    fn fit_and_density_identical_at_any_thread_count() {
        let data = gaussian_blob(120, 12);
        let reference = sidefp_parallel::with_threads(1, || {
            let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
            let rows = kde.density_rows(&data).unwrap();
            (kde.lambdas().to_vec(), rows)
        });
        for threads in [2, 8] {
            let got = sidefp_parallel::with_threads(threads, || {
                let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
                let rows = kde.density_rows(&data).unwrap();
                (kde.lambdas().to_vec(), rows)
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn streamed_sampling_is_seed_deterministic_at_any_thread_count() {
        let data = gaussian_blob(80, 13);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let reference = sidefp_parallel::with_threads(1, || kde.sample_matrix_streamed(99, 500));
        for threads in [2, 8] {
            let got =
                sidefp_parallel::with_threads(threads, || kde.sample_matrix_streamed(99, 500));
            assert_eq!(got.as_slice(), reference.as_slice(), "threads={threads}");
        }
        // Streamed samples still follow the source distribution.
        let sm = reference.column_means();
        let dm = data.column_means();
        assert!((sm[0] - dm[0]).abs() < 0.15);
        assert!((sm[1] - dm[1]).abs() < 0.3);
    }

    /// The allocating sampler that `sample_into` replaced: a kernel offset
    /// `Vec` with the rejection envelope recomputed per draw, a z-space
    /// `Vec` and the scaler's `inverse_transform_sample`.
    fn reference_sample(kde: &AdaptiveKde, rng: &mut StdRng) -> Vec<f64> {
        let i = rng.random_range(0..kde.len());
        let dim = kde.dim();
        let d = dim as f64;
        let r_mode = if dim == 1 {
            0.0
        } else {
            ((d - 1.0) / (d + 1.0)).sqrt()
        };
        let f_max = r_mode.powf(d - 1.0).max(f64::MIN_POSITIVE) * (1.0 - r_mode * r_mode);
        let f_max = if dim == 1 { 1.0 } else { f_max };
        let radius = loop {
            let r: f64 = rng.random::<f64>();
            let f = r.powf(d - 1.0) * (1.0 - r * r);
            if rng.random::<f64>() * f_max <= f {
                break r;
            }
        };
        let mut dir: Vec<f64> = (0..dim)
            .map(|_| crate::MultivariateNormal::standard_normal(rng))
            .collect();
        let norm: f64 = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        for v in &mut dir {
            *v *= radius / norm;
        }
        let hl = kde.bandwidth * kde.lambdas[i];
        let zx: Vec<f64> = kde
            .z
            .row(i)
            .iter()
            .zip(&dir)
            .map(|(c, o)| c + hl * o)
            .collect();
        kde.scaler.inverse_transform_sample(&zx).unwrap()
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn samplers_match_the_allocating_reference_bit_for_bit() {
        for dim in [1, 2, 6, 11] {
            let mvn =
                crate::MultivariateNormal::independent(vec![0.5; dim], &vec![1.5; dim]).unwrap();
            let data = mvn.sample_matrix(&mut StdRng::seed_from_u64(dim as u64), 90);
            let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
            let n = 400;
            for threads in [1, 2] {
                let streamed =
                    sidefp_parallel::with_threads(threads, || kde.sample_matrix_streamed(31, n));
                for i in 0..n {
                    let stream = sidefp_parallel::fork_seed(31, i as u64);
                    let want = reference_sample(&kde, &mut StdRng::seed_from_u64(stream));
                    let got = kde.sample(&mut StdRng::seed_from_u64(stream));
                    assert_eq!(bits(&got), bits(&want), "d={dim} row {i}");
                    assert_eq!(
                        bits(streamed.row(i)),
                        bits(&want),
                        "d={dim} threads={threads} row {i}"
                    );
                }
            }
            // One stream drawn row after row consumes the same draws.
            let matrix = kde.sample_matrix(&mut StdRng::seed_from_u64(77), 50);
            let mut rng = StdRng::seed_from_u64(77);
            for i in 0..50 {
                let want = reference_sample(&kde, &mut rng);
                assert_eq!(bits(matrix.row(i)), bits(&want), "d={dim} row {i}");
            }
        }
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let data = gaussian_blob(120, 23);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let state = kde.export_state();
        let rebuilt = AdaptiveKde::from_state(state.clone()).unwrap();
        assert_eq!(rebuilt.export_state(), state);
        assert_eq!(rebuilt.bandwidth(), kde.bandwidth());
        assert_eq!(rebuilt.lambdas(), kde.lambdas());
        for row in data.rows_iter() {
            assert_eq!(
                rebuilt.density(row).unwrap().to_bits(),
                kde.density(row).unwrap().to_bits()
            );
        }
        // Samples are a pure function of (state, seed), so they match too.
        assert_eq!(
            rebuilt.sample_matrix_streamed(5, 64).as_slice(),
            kde.sample_matrix_streamed(5, 64).as_slice()
        );
    }

    #[test]
    fn corrupt_kde_states_are_rejected() {
        let data = gaussian_blob(40, 24);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let good = kde.export_state();

        let mut s = good.clone();
        s.bandwidth = 0.0;
        assert!(AdaptiveKde::from_state(s).is_err());

        let mut s = good.clone();
        s.lambdas.pop();
        assert!(AdaptiveKde::from_state(s).is_err());

        let mut s = good.clone();
        s.lambdas[0] = -1.0;
        assert!(AdaptiveKde::from_state(s).is_err());

        let mut s = good;
        s.scaler.stds[0] = 0.0;
        assert!(AdaptiveKde::from_state(s).is_err());
    }

    #[test]
    fn density_integrates_to_one_1d() {
        let data =
            Matrix::from_rows(&[&[0.0], &[0.5], &[1.0], &[1.5], &[2.0], &[0.7], &[1.3]]).unwrap();
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let n = 4000;
        let (lo, hi) = (-8.0, 10.0);
        let dx = (hi - lo) / n as f64;
        let integral: f64 = (0..n)
            .map(|i| {
                let x = lo + (i as f64 + 0.5) * dx;
                kde.density(&[x]).unwrap() * dx
            })
            .sum();
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }
}
