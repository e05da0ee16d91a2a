use sidefp_linalg::Matrix;

use crate::StatsError;

/// Configuration for the projected-gradient box-and-band QP solver.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxBandConfig {
    /// Upper bound `B` of the box `0 ≤ β_i ≤ B`.
    pub upper: f64,
    /// Half-width `ε` of the mean band `|mean(β) − 1| ≤ ε`.
    pub band: f64,
    /// Maximum gradient iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the iterate change (infinity norm).
    pub tol: f64,
}

impl Default for BoxBandConfig {
    fn default() -> Self {
        BoxBandConfig {
            upper: 1000.0,
            band: 0.1,
            max_iter: 2000,
            tol: 1e-7,
        }
    }
}

/// Projects `beta` onto the box `[0, B]ⁿ` intersected with the band
/// `|mean(β) − 1| ≤ ε` by alternating projections.
///
/// The two sets are convex and their intersection is non-empty whenever
/// `B ≥ 1 − ε` (the constant vector `1` is then nearly feasible), so the
/// alternation converges; a handful of rounds suffices in practice.
fn project_box_band(beta: &mut [f64], upper: f64, band: f64) {
    let n = beta.len() as f64;
    for _ in 0..64 {
        // Project onto the box.
        for b in beta.iter_mut() {
            *b = b.clamp(0.0, upper);
        }
        // Project onto the band: shift the mean into [1 − ε, 1 + ε].
        let mean: f64 = beta.iter().sum::<f64>() / n;
        let target = if mean < 1.0 - band {
            1.0 - band
        } else if mean > 1.0 + band {
            1.0 + band
        } else {
            // Box projection may have moved us; verify box feasibility.
            if beta.iter().all(|b| (0.0..=upper).contains(b)) {
                return;
            }
            continue;
        };
        let shift = target - mean;
        for b in beta.iter_mut() {
            *b += shift;
        }
    }
    // Final safety clamp: box feasibility is the hard constraint.
    for b in beta.iter_mut() {
        *b = b.clamp(0.0, upper);
    }
}

/// Solves `min ½βᵀKβ − κᵀβ` subject to `0 ≤ β_i ≤ B` and
/// `|mean(β) − 1| ≤ ε` by projected gradient descent.
///
/// This is the kernel-mean-matching QP (paper Eq. 4). `K` must be symmetric
/// positive semi-definite (a Gram matrix); the step size is derived from a
/// Gershgorin bound on its largest eigenvalue, so no line search is needed.
///
/// # Errors
///
/// - [`StatsError::DimensionMismatch`] if `kappa.len() != k.nrows()`.
/// - [`StatsError::InvalidParameter`] on non-positive `upper`/`band`,
///   or if the constraint set is empty (`B < 1 − ε`).
/// - [`StatsError::Linalg`] if `k` is not square.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::qp::{solve_box_band, BoxBandConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = Matrix::identity(3);
/// let kappa = vec![1.0, 1.0, 1.0];
/// let beta = solve_box_band(&k, &kappa, &BoxBandConfig::default())?;
/// // With K = I the unconstrained optimum is β = κ = 1, which is feasible.
/// assert!(beta.iter().all(|b| (b - 1.0).abs() < 1e-4));
/// # Ok(())
/// # }
/// ```
pub fn solve_box_band(
    k: &Matrix,
    kappa: &[f64],
    config: &BoxBandConfig,
) -> Result<Vec<f64>, StatsError> {
    Ok(solve_box_band_detailed(k, kappa, config)?.beta)
}

/// Like [`solve_box_band`], but fails with a typed error instead of
/// returning a best-effort iterate when the iteration budget runs out.
///
/// # Errors
///
/// All of [`solve_box_band`]'s errors, plus [`StatsError::NotConverged`]
/// when the iterate change is still above tolerance at `max_iter`.
pub fn solve_box_band_strict(
    k: &Matrix,
    kappa: &[f64],
    config: &BoxBandConfig,
) -> Result<Vec<f64>, StatsError> {
    let sol = solve_box_band_detailed(k, kappa, config)?;
    if !sol.converged {
        return Err(StatsError::NotConverged {
            algorithm: "box-band-qp",
            iterations: sol.iterations,
        });
    }
    Ok(sol.beta)
}

/// Outcome of a box-band QP solve, with convergence detail.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxBandSolution {
    /// The (always box-feasible) iterate at exit.
    pub beta: Vec<f64>,
    /// Gradient iterations performed.
    pub iterations: usize,
    /// Whether the iterate change fell below `tol` within the budget.
    pub converged: bool,
    /// Infinity-norm iterate change at exit (callers compare it against a
    /// relaxed tolerance to decide whether a best-effort iterate is usable).
    pub final_delta: f64,
}

/// [`solve_box_band`] with convergence diagnostics attached.
///
/// # Errors
///
/// Same as [`solve_box_band`]; exhausting the iteration budget is *not* an
/// error — it is reported through `converged` / `final_delta`.
pub fn solve_box_band_detailed(
    k: &Matrix,
    kappa: &[f64],
    config: &BoxBandConfig,
) -> Result<BoxBandSolution, StatsError> {
    if !k.is_square() {
        return Err(StatsError::Linalg(sidefp_linalg::LinalgError::NotSquare {
            shape: k.shape(),
        }));
    }
    let n = k.nrows();
    if kappa.len() != n {
        return Err(StatsError::DimensionMismatch {
            expected: n,
            got: kappa.len(),
        });
    }
    if config.upper <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "upper",
            reason: format!("box upper bound must be positive, got {}", config.upper),
        });
    }
    if config.band <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "band",
            reason: format!("band half-width must be positive, got {}", config.band),
        });
    }
    if config.upper < 1.0 - config.band {
        return Err(StatsError::InvalidParameter {
            name: "upper",
            reason: format!(
                "constraint set empty: upper bound {} < 1 - band {}",
                config.upper,
                1.0 - config.band
            ),
        });
    }

    // Fused column product: `Kβ` is built as `out = 0`, then
    // `out += β_j·K_j` for each nonzero `β_j` in ascending `j`, four rows
    // per pass over `out`. For a finite, bitwise-symmetric K each
    // component adds the same nonzero terms in the same order as
    // `matvec_into`, and every skipped term is `K_ij·0 = ±0`, which cannot
    // change an accumulator that started at `+0.0`. The dense tail rows
    // (`n % 4`) start their sum at `−0.0`, so a component may differ there
    // only in the sign of an exact zero, which the update `β_i − step·g_i`
    // erases because β never holds `−0.0`. The trajectory is therefore
    // bit-identical. An infinite entry would make a skipped `inf·0` a NaN,
    // and an asymmetric K would read the wrong entries, so either keeps
    // `matvec_into` throughout.
    let fused_ok = (0..n).all(|i| {
        (0..=i).all(|j| k[(i, j)].is_finite() && k[(i, j)].to_bits() == k[(j, i)].to_bits())
    });
    let step = 1.0 / gershgorin_bound(k).max(1e-12);

    // Feasible start: the all-ones vector clamped into the box.
    let mut beta = vec![1.0_f64.min(config.upper); n];
    project_box_band(&mut beta, config.upper, config.band);

    let mut iterations = 0;
    let mut converged = false;
    let mut final_delta = f64::INFINITY;
    // Steady-state buffers, reused across iterations (the gradient loop
    // allocates nothing after this point).
    let mut grad = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut nonzero = Vec::with_capacity(n);
    for _ in 0..config.max_iter {
        // grad = K β − κ
        if fused_ok {
            nonzero.clear();
            nonzero.extend((0..n).filter(|&j| beta[j] != 0.0));
            fused_column_product(k, &beta, &nonzero, &mut grad);
        } else {
            k.matvec_into(&beta, &mut grad)?;
        }
        for (gi, ki) in grad.iter_mut().zip(kappa) {
            *gi -= ki;
        }
        for ((nx, b), g) in next.iter_mut().zip(&beta).zip(&grad) {
            *nx = b - step * g;
        }
        project_box_band(&mut next, config.upper, config.band);

        let delta = next
            .iter()
            .zip(&beta)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        std::mem::swap(&mut beta, &mut next);
        iterations += 1;
        final_delta = delta;
        if delta < config.tol {
            converged = true;
            break;
        }
    }
    if config.max_iter == 0 {
        // Degenerate budget: the feasible start is the solution by fiat.
        converged = true;
        final_delta = 0.0;
    }
    Ok(BoxBandSolution {
        beta,
        iterations,
        converged,
        final_delta,
    })
}

/// `out = Σ_j β_j·K_j` over the rows `j` listed in `rows` (ascending),
/// four rows per pass over `out`. Each element receives the same adds in
/// the same order as one `axpy_mut` per row.
fn fused_column_product(k: &Matrix, beta: &[f64], rows: &[usize], out: &mut [f64]) {
    out.fill(0.0);
    let mut quads = rows.chunks_exact(4);
    for q in &mut quads {
        let (b0, b1, b2, b3) = (beta[q[0]], beta[q[1]], beta[q[2]], beta[q[3]]);
        let (r0, r1, r2, r3) = (k.row(q[0]), k.row(q[1]), k.row(q[2]), k.row(q[3]));
        for ((((o, a0), a1), a2), a3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *o = *o + b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3;
        }
    }
    for &j in quads.remainder() {
        sidefp_linalg::vecops::axpy_mut(out, beta[j], k.row(j));
    }
}

/// Gershgorin bound on the spectral radius of `k` (its largest absolute
/// row sum), which sets the solve's fixed step size.
fn gershgorin_bound(k: &Matrix) -> f64 {
    k.rows_iter()
        .map(|row| row.iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{descriptive, GramMatrix, Kernel, MultivariateNormal};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference solve: the historical projected-gradient loop with
    /// the dense `matvec_into` on every iteration. Also returns the first
    /// iterate with at most half its weights nonzero, from which the fused
    /// product skips most rows.
    fn dense_reference(
        k: &Matrix,
        kappa: &[f64],
        config: &BoxBandConfig,
    ) -> (BoxBandSolution, Option<Vec<f64>>) {
        let n = k.nrows();
        let step = 1.0 / gershgorin_bound(k).max(1e-12);
        let mut beta = vec![1.0_f64.min(config.upper); n];
        project_box_band(&mut beta, config.upper, config.band);
        let (mut iterations, mut converged, mut final_delta) = (0, false, f64::INFINITY);
        let (mut grad, mut next) = (vec![0.0; n], vec![0.0; n]);
        let mut first_sparse = None;
        for _ in 0..config.max_iter {
            if first_sparse.is_none() && 2 * beta.iter().filter(|b| **b != 0.0).count() <= n {
                first_sparse = Some(beta.clone());
            }
            k.matvec_into(&beta, &mut grad).unwrap();
            for (gi, ki) in grad.iter_mut().zip(kappa) {
                *gi -= ki;
            }
            for ((nx, b), g) in next.iter_mut().zip(&beta).zip(&grad) {
                *nx = b - step * g;
            }
            project_box_band(&mut next, config.upper, config.band);
            let delta = next
                .iter()
                .zip(&beta)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            std::mem::swap(&mut beta, &mut next);
            iterations += 1;
            final_delta = delta;
            if delta < config.tol {
                converged = true;
                break;
            }
        }
        let sol = BoxBandSolution {
            beta,
            iterations,
            converged,
            final_delta,
        };
        (sol, first_sparse)
    }

    fn solution_bits(sol: &BoxBandSolution) -> (Vec<u64>, usize, bool, u64) {
        (
            sol.beta.iter().map(|b| b.to_bits()).collect(),
            sol.iterations,
            sol.converged,
            sol.final_delta.to_bits(),
        )
    }

    /// Solves with `solve_box_band_detailed`, asserts the result equals the
    /// dense reference bit for bit and returns the reference's first
    /// sparse iterate.
    fn assert_matches_dense(k: &Matrix, kappa: &[f64], config: &BoxBandConfig) -> Option<Vec<f64>> {
        let got = solve_box_band_detailed(k, kappa, config).unwrap();
        let (want, first_sparse) = dense_reference(k, kappa, config);
        assert_eq!(solution_bits(&got), solution_bits(&want));
        first_sparse
    }

    /// KMM's exact QP (paper Eq. 4) for 1-D standard-normal training rows
    /// and test rows shifted by `shift` training sd: the RBF Gram, κ from
    /// the cross-kernel row sums and KMM's default box, band and budget.
    /// `gamma: None` takes the median heuristic over both sets, as KMM does.
    fn kmm_problem(
        n_train: usize,
        shift: f64,
        gamma: Option<f64>,
        seed: u64,
    ) -> (Matrix, Vec<f64>, BoxBandConfig) {
        let n_test = n_train + n_train / 5;
        let mvn = MultivariateNormal::independent(vec![0.0], &[1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let train = mvn.sample_matrix(&mut rng, n_train);
        let mut test = mvn.sample_matrix(&mut rng, n_test);
        let sd = descriptive::std_dev(&train.col(0)).unwrap();
        for i in 0..n_test {
            test[(i, 0)] += shift * sd;
        }
        let kernel = match gamma {
            Some(gamma) => Kernel::Rbf { gamma },
            None => Kernel::rbf_median_heuristic(&train.vstack(&test).unwrap()).unwrap(),
        };
        let k = GramMatrix::symmetric(kernel, &train).matrix().clone();
        let cross = GramMatrix::cross(kernel, &train, &test).unwrap();
        let ratio = n_train as f64 / n_test as f64;
        let kappa = (0..n_train)
            .map(|i| ratio * cross.row(i).iter().sum::<f64>())
            .collect();
        let root = (n_train as f64).sqrt();
        let config = BoxBandConfig {
            upper: 1000.0,
            band: (root - 1.0) / root,
            max_iter: 4000,
            tol: 1e-7,
        };
        (k, kappa, config)
    }

    #[test]
    fn far_shift_runs_sparse_phase_bit_identically() {
        // 8.4 training sd is the paper-default silicon PCM shift; sizes 37,
        // 101, 102 and 103 leave 1–3 rows past `matvec_into`'s 4-row blocks.
        for n in [37, 100, 101, 102, 103] {
            let (k, kappa, cfg) = kmm_problem(n, 8.4, None, 42 + n as u64);
            let sparse = assert_matches_dense(&k, &kappa, &cfg);
            assert!(
                sparse.is_some(),
                "n={n}: no iterate had half its weights zero"
            );
        }
    }

    #[test]
    fn near_shift_dense_weights_fused_product_matches_matvec() {
        // At a 1-sd shift every iterate keeps more than half its weights
        // nonzero, so the fused column product runs over most rows of K on
        // every iteration.
        let (k, kappa, cfg) = kmm_problem(100, 1.0, None, 7);
        assert_eq!(assert_matches_dense(&k, &kappa, &cfg), None);
    }

    #[test]
    fn asymmetric_kernel_falls_back_to_dense_product() {
        let (mut k, kappa, cfg) = kmm_problem(101, 8.4, None, 3);
        // Perturb K_ij between the second-largest (i) and largest (j)
        // weight of the first sparse iterate, where a column product
        // reading the mirrored K_ji would see a different operator. A 1-ulp
        // nudge is usually absorbed by the update; doubling the entry is
        // not.
        let beta = assert_matches_dense(&k, &kappa, &cfg).expect("no sparse iterate");
        let mut order: Vec<usize> = (0..beta.len()).collect();
        order.sort_by(|&a, &b| beta[b].total_cmp(&beta[a]));
        let (i, j) = (order[1], order[0]);
        let entry = k[(i, j)];
        for perturbed in [f64::from_bits(entry.to_bits() + 1), 2.0 * entry] {
            k[(i, j)] = perturbed;
            assert!(assert_matches_dense(&k, &kappa, &cfg).is_some());
        }
    }

    #[test]
    fn non_finite_kernel_falls_back_to_dense_product() {
        let (mut k, kappa, cfg) = kmm_problem(37, 8.4, None, 5);
        k[(3, 9)] = f64::INFINITY;
        k[(9, 3)] = f64::INFINITY;
        let got = solve_box_band_detailed(&k, &kappa, &cfg).unwrap();
        assert!(got.beta.iter().any(|b| b.is_nan()));
        assert_matches_dense(&k, &kappa, &cfg);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sparse_gradient_is_bit_identical_to_dense(
            n in 5usize..80,
            gamma in 0.02_f64..8.0,
            shift in 0.0_f64..12.0,
            seed in 0u64..1_000_000,
        ) {
            let (k, kappa, cfg) = kmm_problem(n, shift, Some(gamma), seed);
            let got = solve_box_band_detailed(&k, &kappa, &cfg).unwrap();
            let (want, _) = dense_reference(&k, &kappa, &cfg);
            prop_assert_eq!(solution_bits(&got), solution_bits(&want));
        }
    }

    #[test]
    fn identity_kernel_recovers_kappa_when_feasible() {
        let k = Matrix::identity(4);
        let kappa = vec![0.9, 1.1, 1.0, 1.0];
        let beta = solve_box_band(&k, &kappa, &BoxBandConfig::default()).unwrap();
        for (b, t) in beta.iter().zip(&kappa) {
            assert!((b - t).abs() < 1e-3, "beta {b} target {t}");
        }
    }

    #[test]
    fn box_constraint_binds() {
        let k = Matrix::identity(2);
        // Unconstrained optimum is (5, 5) but box caps at 2; the mean band
        // then pulls toward mean 1 + eps.
        let kappa = vec![5.0, 5.0];
        let cfg = BoxBandConfig {
            upper: 2.0,
            band: 0.5,
            ..Default::default()
        };
        let beta = solve_box_band(&k, &kappa, &cfg).unwrap();
        for b in &beta {
            assert!(*b <= 2.0 + 1e-9 && *b >= 0.0);
        }
        let mean: f64 = beta.iter().sum::<f64>() / 2.0;
        assert!(mean <= 1.5 + 1e-6, "mean {mean} violates band");
    }

    #[test]
    fn mean_band_holds() {
        let k = Matrix::identity(3);
        let kappa = vec![0.0, 0.0, 0.0]; // optimum wants all zeros
        let cfg = BoxBandConfig {
            band: 0.2,
            ..Default::default()
        };
        let beta = solve_box_band(&k, &kappa, &cfg).unwrap();
        let mean: f64 = beta.iter().sum::<f64>() / 3.0;
        assert!(mean >= 0.8 - 1e-6, "mean {mean} fell below the band");
    }

    #[test]
    fn objective_decreases_from_start() {
        // Random-ish SPD kernel.
        let a = Matrix::from_rows(&[&[1.0, 0.3, 0.1], &[0.3, 1.0, 0.2], &[0.1, 0.2, 1.0]]).unwrap();
        let kappa = vec![2.0, 0.5, 1.5];
        let obj = |b: &[f64]| -> f64 {
            let kb = a.matvec(b).unwrap();
            0.5 * b.iter().zip(&kb).map(|(x, y)| x * y).sum::<f64>()
                - kappa.iter().zip(b).map(|(k, x)| k * x).sum::<f64>()
        };
        let start = vec![1.0; 3];
        let beta = solve_box_band(&a, &kappa, &BoxBandConfig::default()).unwrap();
        assert!(obj(&beta) <= obj(&start) + 1e-9);
    }

    #[test]
    fn rejects_invalid_config() {
        let k = Matrix::identity(2);
        let kappa = vec![1.0, 1.0];
        let bad_upper = BoxBandConfig {
            upper: 0.0,
            ..Default::default()
        };
        assert!(solve_box_band(&k, &kappa, &bad_upper).is_err());
        let bad_band = BoxBandConfig {
            band: 0.0,
            ..Default::default()
        };
        assert!(solve_box_band(&k, &kappa, &bad_band).is_err());
        let empty_set = BoxBandConfig {
            upper: 0.5,
            band: 0.1,
            ..Default::default()
        };
        assert!(solve_box_band(&k, &kappa, &empty_set).is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        let k = Matrix::zeros(2, 3);
        assert!(solve_box_band(&k, &[1.0, 1.0], &BoxBandConfig::default()).is_err());
        let k = Matrix::identity(2);
        assert!(solve_box_band(&k, &[1.0], &BoxBandConfig::default()).is_err());
    }

    #[test]
    fn detailed_solve_reports_convergence() {
        let k = Matrix::identity(3);
        let kappa = vec![1.0, 1.0, 1.0];
        let sol = solve_box_band_detailed(&k, &kappa, &BoxBandConfig::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.final_delta < BoxBandConfig::default().tol);
        assert!(sol.iterations >= 1);
        // The plain wrapper returns the same iterate.
        let beta = solve_box_band(&k, &kappa, &BoxBandConfig::default()).unwrap();
        assert_eq!(beta, sol.beta);
    }

    #[test]
    fn strict_solve_errors_when_budget_exhausted() {
        let k = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 1.0]]).unwrap();
        let kappa = vec![3.0, 0.2];
        let cfg = BoxBandConfig {
            tol: 1e-14,
            max_iter: 1,
            ..Default::default()
        };
        let sol = solve_box_band_detailed(&k, &kappa, &cfg).unwrap();
        assert!(!sol.converged);
        assert!(sol.final_delta > cfg.tol);
        assert!(matches!(
            solve_box_band_strict(&k, &kappa, &cfg),
            Err(StatsError::NotConverged {
                algorithm: "box-band-qp",
                ..
            })
        ));
        // Best-effort path still hands back a feasible iterate.
        assert!(solve_box_band(&k, &kappa, &cfg).is_ok());
    }

    #[test]
    fn projection_satisfies_both_sets() {
        let mut beta = vec![-5.0, 10.0, 0.5];
        project_box_band(&mut beta, 2.0, 0.3);
        for b in &beta {
            assert!(*b >= -1e-9 && *b <= 2.0 + 1e-9);
        }
        let mean: f64 = beta.iter().sum::<f64>() / 3.0;
        assert!((0.7 - 1e-6..=1.3 + 1e-6).contains(&mean), "mean {mean}");
    }
}
