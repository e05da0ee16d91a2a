use sidefp_linalg::Matrix;

use crate::StatsError;

/// Pairwise updates between two shrinking passes over the working set.
const SHRINK_PERIOD: usize = 100;

/// Maximal-violating-pair scan over the coordinates in `active`:
/// `(i_best, g_min, j_best, g_max)` where `i` ranges over coordinates free
/// to increase (`α_i < C`) and `j` over those free to decrease (`α_j > 0`).
/// `usize::MAX` marks an empty candidate set.
fn select_pair(alpha: &[f64], grad: &[f64], c: f64, active: &[usize]) -> (usize, f64, usize, f64) {
    let mut i_best = usize::MAX;
    let mut g_min = f64::INFINITY;
    let mut j_best = usize::MAX;
    let mut g_max = f64::NEG_INFINITY;
    for &t in active {
        let (a, g) = (alpha[t], grad[t]);
        // Branchless eligibility (compiles to a select): ineligible
        // coordinates become ±∞ so the single rarely-taken comparison
        // below is the only branch the predictor has to learn.
        let up = if a < c - 1e-15 { g } else { f64::INFINITY };
        let down = if a > 1e-15 { g } else { f64::NEG_INFINITY };
        if up < g_min {
            g_min = up;
            i_best = t;
        }
        if down > g_max {
            g_max = down;
            j_best = t;
        }
    }
    (i_best, g_min, j_best, g_max)
}

/// Unshrinks: rebuilds `grad = Qα` over all `n` coordinates from the rows
/// of the nonzero `α` (loaded as one block where the row source computes
/// them, folded in ascending row order), puts every coordinate back in
/// the working set `active` and returns its maximal violating pair.
fn unshrink<Q: WorkingSetQ>(
    q: &mut Q,
    alpha: &[f64],
    c: f64,
    grad: &mut [f64],
    active: &mut Vec<usize>,
) -> Result<(usize, f64, usize, f64), StatsError> {
    active.clear();
    active.extend((0..alpha.len()).filter(|&s| alpha[s] != 0.0));
    q.load(active)?;
    grad.fill(0.0);
    for &s in active.iter() {
        let a = alpha[s];
        for (g, &k) in grad.iter_mut().zip(q.row(s)) {
            *g += a * k;
        }
    }
    active.clear();
    active.extend(0..alpha.len());
    Ok(select_pair(alpha, grad, c, active))
}

/// A source of rows of the SMO matrix `Q`.
///
/// The solver reads `Q` only by rows: the working pair's two rows for
/// the analytic update (their diagonal entries give the curvature), and
/// the rows of the nonzero `α` whenever it rebuilds the gradient `Qα`.
/// [`WorkingSetQ::load`] makes rows readable — a row source may compute
/// them there, once — and [`WorkingSetQ::row`] reads a loaded row.
/// Implemented by a dense precomputed [`Matrix`] and by
/// [`KernelRows`](crate::KernelRows), which computes kernel rows on
/// first use so a solve never forms the rows it does not touch.
pub trait WorkingSetQ {
    /// Number of rows/columns of the square matrix.
    fn len(&self) -> usize;

    /// `true` for an empty (0×0) matrix.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes rows `idx` readable through [`WorkingSetQ::row`].
    ///
    /// # Errors
    ///
    /// Propagates a row source's failure to compute a row.
    fn load(&mut self, idx: &[usize]) -> Result<(), StatsError>;

    /// Row `i`, which a [`WorkingSetQ::load`] call must have made
    /// readable (a row source may panic otherwise).
    fn row(&self, i: usize) -> &[f64];
}

/// Dense precomputed `Q`: every row is readable, loading is free.
impl WorkingSetQ for &Matrix {
    fn len(&self) -> usize {
        self.nrows()
    }

    fn load(&mut self, _idx: &[usize]) -> Result<(), StatsError> {
        Ok(())
    }

    fn row(&self, i: usize) -> &[f64] {
        Matrix::row(self, i)
    }
}

/// Configuration for the SMO solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoConfig {
    /// Per-coordinate upper bound `C` (for the ν-OCSVM, `C = 1/(ν·n)`).
    pub upper: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Maximum number of pairwise updates.
    pub max_iter: usize,
}

impl Default for SmoConfig {
    fn default() -> Self {
        SmoConfig {
            upper: 1.0,
            tol: 1e-6,
            max_iter: 100_000,
        }
    }
}

/// Result of an SMO run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoSolution {
    /// Optimal dual variables.
    pub alpha: Vec<f64>,
    /// Final gradient `Qα` over all `n` coordinates, rebuilt from the
    /// nonzero `α` (useful for computing the SVM offset ρ).
    pub gradient: Vec<f64>,
    /// Number of pairwise updates performed.
    pub iterations: usize,
    /// Whether the KKT conditions were met within tolerance over all `n`
    /// coordinates.
    pub converged: bool,
    /// KKT violation gap `g_max − g_min` over all `n` coordinates at exit
    /// (below the configured tolerance when `converged`; callers use it to
    /// decide whether a best-effort solution is acceptable under a relaxed
    /// tolerance).
    pub kkt_gap: f64,
}

/// Sequential minimal optimization for `min ½αᵀQα` subject to `Σα = 1`,
/// `0 ≤ α_i ≤ C`.
///
/// This is exactly the dual of the ν-one-class SVM (all labels positive, no
/// linear term). The solver picks the maximal-violating pair at each step
/// and updates it analytically, so the equality constraint is preserved by
/// construction.
///
/// Two devices from LIBSVM (Chang & Lin 2011; Joachims 1999 for
/// shrinking) keep a solve on a few rows of `Q`:
///
/// - **Sparse start.** A cold solve begins at `α = C` on the first
///   `⌊1/C⌋` coordinates, the remaining mass on the next one and `0`
///   elsewhere, so the starting gradient reads only those rows.
/// - **Shrinking.** Every 100 updates, coordinates at `0` whose gradient
///   exceeds the largest decreasable gradient, and coordinates at `C`
///   whose gradient is below the smallest increasable one, leave the
///   working set: the pair scan and the gradient update skip them.
///
/// The solve stops only on the full problem: when the working set looks
/// optimal, the gradient is rebuilt over all `n` coordinates from the
/// nonzero `α`, every coordinate rejoins the working set, and the
/// maximal-violating-pair gap over all `n` must be below the tolerance.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::qp::{SmoConfig, SmoSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Matrix::identity(4);
/// let sol = SmoSolver::new(SmoConfig::default()).solve(&q)?;
/// // Identity Q: optimum spreads mass uniformly, α_i = 1/4.
/// for a in &sol.alpha {
///     assert!((a - 0.25).abs() < 1e-4);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SmoSolver {
    config: SmoConfig,
}

impl SmoSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SmoConfig) -> Self {
        SmoSolver { config }
    }

    /// Solves the QP for the symmetric PSD matrix `q`.
    ///
    /// # Errors
    ///
    /// - [`StatsError::Linalg`] if `q` is not square.
    /// - [`StatsError::InvalidParameter`] if `upper·n < 1` (infeasible) or
    ///   `upper ≤ 0`.
    /// - Never returns [`StatsError::NotConverged`]: a best-effort solution
    ///   with `converged = false` is returned instead, because a slightly
    ///   sub-optimal boundary is still usable downstream.
    pub fn solve(&self, q: &Matrix) -> Result<SmoSolution, StatsError> {
        if !q.is_square() {
            return Err(StatsError::Linalg(sidefp_linalg::LinalgError::NotSquare {
                shape: q.shape(),
            }));
        }
        self.solve_with(&mut { q })
    }

    /// Solves the QP against any [`WorkingSetQ`] row source — a dense
    /// matrix or kernel rows computed on first use — from the sparse
    /// one-class start.
    ///
    /// # Errors
    ///
    /// Same contract as [`SmoSolver::solve`], plus any error the row
    /// source reports.
    pub fn solve_with<Q: WorkingSetQ>(&self, q: &mut Q) -> Result<SmoSolution, StatsError> {
        let (n, c) = self.validate(q)?;

        // Sparse feasible start: C on the first ⌊1/C⌋ coordinates, the
        // rest of the mass on the next one. C·n ≥ 1, so the mass fits; a
        // remainder below rounding level is dropped rather than placed.
        let mut alpha = vec![0.0; n];
        let mut rest = 1.0_f64;
        for a in &mut alpha {
            if rest <= c * 1e-12 {
                break;
            }
            *a = rest.min(c);
            rest -= *a;
        }

        self.iterate(q, alpha)
    }

    /// Solves the QP starting from a caller-supplied iterate instead of the
    /// sparse one-class start.
    ///
    /// This is the warm-start entry: an `α` preserved from a previous fit on
    /// similar data lands near the new optimum, so the maximal-violating-pair
    /// loop converges in far fewer updates than a cold solve. The start is
    /// repaired into the feasible set before iterating — each coordinate is
    /// clamped into `[0, C]` and the simplex mass `Σα = 1` is restored by
    /// proportional scaling (excess) or headroom-proportional fill (deficit),
    /// so any finite vector of the right length is a legal start.
    ///
    /// # Errors
    ///
    /// All of [`SmoSolver::solve_with`]'s errors, plus
    /// [`StatsError::DimensionMismatch`] when `start.len() ≠ q.len()` and
    /// [`StatsError::InvalidParameter`] for non-finite start entries.
    pub fn solve_with_start<Q: WorkingSetQ>(
        &self,
        q: &mut Q,
        start: &[f64],
    ) -> Result<SmoSolution, StatsError> {
        let (n, c) = self.validate(q)?;
        if start.len() != n {
            return Err(StatsError::DimensionMismatch {
                expected: n,
                got: start.len(),
            });
        }
        crate::check_finite_slice("smo_start", start)?;

        let mut alpha: Vec<f64> = start.iter().map(|&a| a.clamp(0.0, c)).collect();
        let mass: f64 = alpha.iter().sum();
        if mass > 1.0 + 1e-12 {
            let scale = 1.0 / mass;
            for a in &mut alpha {
                *a *= scale;
            }
        } else if mass < 1.0 - 1e-12 {
            // Distribute the deficit proportionally to per-coordinate
            // headroom: Σ(C − α_i) = C·n − mass ≥ 1 − mass > 0, so the fill
            // lands exactly on the simplex without leaving the box.
            let headroom = c * n as f64 - mass;
            let fill = (1.0 - mass) / headroom;
            for a in &mut alpha {
                *a += fill * (c - *a);
            }
        }

        self.iterate(q, alpha)
    }

    fn validate<Q: WorkingSetQ>(&self, q: &mut Q) -> Result<(usize, f64), StatsError> {
        let n = q.len();
        let c = self.config.upper;
        if c <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "upper",
                reason: format!("must be positive, got {c}"),
            });
        }
        if (c * n as f64) < 1.0 - 1e-12 {
            return Err(StatsError::InvalidParameter {
                name: "upper",
                reason: format!("infeasible: upper * n = {} < 1", c * n as f64),
            });
        }
        Ok((n, c))
    }

    /// The shared maximal-violating-pair loop with shrinking, from an
    /// already-feasible iterate (`α ∈ [0, C]ⁿ`, `Σα = 1`).
    fn iterate<Q: WorkingSetQ>(
        &self,
        q: &mut Q,
        mut alpha: Vec<f64>,
    ) -> Result<SmoSolution, StatsError> {
        let n = q.len();
        let c = self.config.upper;

        // Maximal violating pair on the working set `active`:
        //   i (can increase): α_i < C with minimal gradient,
        //   j (can decrease): α_j > 0 with maximal gradient.
        let mut grad = vec![0.0; n];
        let mut active = Vec::with_capacity(n);
        let (mut i_best, mut g_min, mut j_best, mut g_max) =
            unshrink(q, &alpha, c, &mut grad, &mut active)?;
        // `fresh`: just unshrunk, with no update since — the only state
        // the solve may stop in.
        let mut fresh = true;

        let mut iterations = 0;
        let mut converged = false;
        loop {
            let step = if i_best == usize::MAX
                || j_best == usize::MAX
                || g_max - g_min < self.config.tol
            {
                None
            } else if iterations >= self.config.max_iter {
                break;
            } else {
                // Analytic update along e_i − e_j: minimize
                //   ½(α + δ(e_i − e_j))ᵀ Q (α + δ(e_i − e_j))
                // → δ* = (g_j − g_i) / (Q_ii + Q_jj − 2Q_ij).
                let (i, j) = (i_best, j_best);
                q.load(&[i, j])?;
                let (qi, qj) = (q.row(i), q.row(j));
                let denom = qi[i] + qj[j] - 2.0 * qi[j];
                let delta = if denom > 1e-12 {
                    (grad[j] - grad[i]) / denom
                } else {
                    // Flat direction: move as far as the box allows.
                    f64::INFINITY
                };
                // Box clipping. NaN or non-positive steps mean the pair is
                // numerically stuck, which counts as optimal.
                let delta = delta.min(c - alpha[i]).min(alpha[j]);
                (delta > 0.0).then_some(delta)
            };
            let Some(delta) = step else {
                if fresh {
                    converged = true;
                    break;
                }
                // The working set looks optimal: check again on all n.
                (i_best, g_min, j_best, g_max) = unshrink(q, &alpha, c, &mut grad, &mut active)?;
                fresh = true;
                continue;
            };

            let (i, j) = (i_best, j_best);
            let (qi, qj) = (q.row(i), q.row(j));
            alpha[i] += delta;
            alpha[j] -= delta;
            fresh = false;
            // Incremental gradient update grad += δ(Q e_i − Q e_j) over the
            // working set, fused with the *next* pair selection: one pass
            // over (grad, α, Q rows) instead of an update pass plus a
            // selection pass.
            i_best = usize::MAX;
            g_min = f64::INFINITY;
            j_best = usize::MAX;
            g_max = f64::NEG_INFINITY;
            for &t in &active {
                let v = grad[t] + delta * (qi[t] - qj[t]);
                grad[t] = v;
                let a = alpha[t];
                // Branchless eligibility, as in `select_pair`.
                let up = if a < c - 1e-15 { v } else { f64::INFINITY };
                let down = if a > 1e-15 { v } else { f64::NEG_INFINITY };
                if up < g_min {
                    g_min = up;
                    i_best = t;
                }
                if down > g_max {
                    g_max = down;
                    j_best = t;
                }
            }
            iterations += 1;

            if iterations % SHRINK_PERIOD == 0 {
                // Shrink: a coordinate at 0 above every decreasable
                // gradient, or at C below every increasable one, cannot be
                // in the next violating pair; the final rebuild re-checks
                // it. The selected pair itself never qualifies.
                active.retain(|&t| {
                    let (a, g) = (alpha[t], grad[t]);
                    !((a <= 1e-15 && g > g_max) || (a >= c - 1e-15 && g < g_min))
                });
            }
        }

        if !fresh {
            // Budget exhausted: report the gap of the final iterate over
            // all n coordinates, from a rebuilt gradient.
            (i_best, g_min, j_best, g_max) = unshrink(q, &alpha, c, &mut grad, &mut active)?;
        }
        let kkt_gap = if i_best == usize::MAX || j_best == usize::MAX {
            0.0
        } else {
            (g_max - g_min).max(0.0)
        };

        Ok(SmoSolution {
            alpha,
            gradient: grad,
            iterations,
            converged,
            kkt_gap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GramMatrix, Kernel, KernelRows, MultivariateNormal};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn objective(q: &Matrix, alpha: &[f64]) -> f64 {
        let qa = q.matvec(alpha).unwrap();
        0.5 * alpha.iter().zip(&qa).map(|(a, b)| a * b).sum::<f64>()
    }

    /// Standard-normal rows, the shape of a standardized fingerprint set.
    fn normal_rows(n: usize, dim: usize, seed: u64) -> Matrix {
        let mvn = MultivariateNormal::independent(vec![0.0; dim], &vec![1.0; dim]).unwrap();
        mvn.sample_matrix(&mut StdRng::seed_from_u64(seed), n)
    }

    /// Feasibility error and maximal-violating-pair gap of `alpha` over
    /// all n coordinates, from a gradient recomputed on the dense `q`.
    fn dense_certificate(q: &Matrix, alpha: &[f64], c: f64) -> (f64, f64) {
        let grad = q.matvec(alpha).unwrap();
        let mass: f64 = alpha.iter().sum();
        let out_of_box = alpha
            .iter()
            .map(|&a| (-a).max(a - c).max(0.0))
            .fold(0.0, f64::max);
        let all: Vec<usize> = (0..alpha.len()).collect();
        let (i, g_min, j, g_max) = select_pair(alpha, &grad, c, &all);
        let gap = if i == usize::MAX || j == usize::MAX {
            0.0
        } else {
            (g_max - g_min).max(0.0)
        };
        ((mass - 1.0).abs().max(out_of_box), gap)
    }

    /// Test-only reference: the plain maximal-violating-pair loop on a
    /// dense `Q` from the uniform start, without shrinking.
    fn dense_uniform_reference(q: &Matrix, c: f64, tol: f64) -> Vec<f64> {
        let n = q.nrows();
        let mut alpha = vec![1.0 / n as f64; n];
        let mut grad = q.matvec(&alpha).unwrap();
        let all: Vec<usize> = (0..n).collect();
        for _ in 0..1_000_000 {
            let (i, g_min, j, g_max) = select_pair(&alpha, &grad, c, &all);
            if i == usize::MAX || j == usize::MAX || g_max - g_min < tol {
                break;
            }
            let denom = q[(i, i)] + q[(j, j)] - 2.0 * q[(i, j)];
            let step = if denom > 1e-12 {
                (grad[j] - grad[i]) / denom
            } else {
                f64::INFINITY
            };
            let delta = step.min(c - alpha[i]).min(alpha[j]);
            alpha[i] += delta;
            alpha[j] -= delta;
            for (t, g) in grad.iter_mut().enumerate() {
                *g += delta * (q[(i, t)] - q[(j, t)]);
            }
        }
        alpha
    }

    /// A ν-OCSVM dual on standard-normal rows: data, kernel and C.
    fn ocsvm_problem(
        n: usize,
        dim: usize,
        nu: f64,
        gamma: f64,
        seed: u64,
    ) -> (Matrix, Kernel, f64) {
        (
            normal_rows(n, dim, seed),
            Kernel::Rbf { gamma },
            1.0 / (nu * n as f64),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_rbf_problems_end_on_an_all_n_kkt_certificate(
            n in 2usize..201,
            dim in 1usize..12,
            nu in 0.01_f64..1.0,
            gamma in 0.02_f64..5.0,
            seed in 0u64..1_000_000,
        ) {
            let (data, kernel, c) = ocsvm_problem(n, dim, nu, gamma, seed);
            let cfg = SmoConfig { upper: c, tol: 1e-6, max_iter: 1_000_000 };
            let sol = SmoSolver::new(cfg).solve_with(&mut KernelRows::new(kernel, &data)).unwrap();
            prop_assert!(sol.converged);
            // Recomputed from a fresh dense Gram over all n coordinates: a
            // final unshrink that skipped coordinates would show here.
            let dense = GramMatrix::symmetric(kernel, &data);
            let (infeasible, gap) = dense_certificate(dense.matrix(), &sol.alpha, c);
            prop_assert!(infeasible < 1e-9, "feasibility error {infeasible}");
            prop_assert!(gap < cfg.tol + 1e-12, "dense KKT gap {gap}");
            prop_assert!((gap - sol.kkt_gap).abs() < 1e-12, "gap {gap} vs reported {}", sol.kkt_gap);
        }
    }

    #[test]
    fn smo_on_kernel_rows_matches_smo_on_dense_gram() {
        // The row store's entries equal the dense Gram's bit for bit, so
        // the two row sources drive the identical trajectory.
        let (data, kernel, c) = ocsvm_problem(150, 3, 0.1, 0.8, 5);
        let solver = SmoSolver::new(SmoConfig {
            upper: c,
            ..Default::default()
        });
        let dense = solver
            .solve(GramMatrix::symmetric(kernel, &data).matrix())
            .unwrap();
        let rows = solver
            .solve_with(&mut KernelRows::new(kernel, &data))
            .unwrap();
        assert!(rows.converged);
        assert_eq!(rows, dense);
    }

    #[test]
    fn b2_shaped_solve_reads_fewer_than_n_rows() {
        // B2/B5: 1,500 standardized 6-column rows, ν = 0.05, γ = 0.5.
        let (data, kernel, c) = ocsvm_problem(1500, 6, 0.05, 0.5, 29);
        let mut rows = KernelRows::new(kernel, &data);
        let cfg = SmoConfig {
            upper: c,
            tol: 1e-6,
            max_iter: 200_000,
        };
        let sol = SmoSolver::new(cfg).solve_with(&mut rows).unwrap();
        assert!(sol.converged);
        assert!(rows.held() < 1500 / 2, "held {} of 1500 rows", rows.held());
    }

    #[test]
    fn one_step_budget_is_feasible_unconverged_with_an_all_n_gap() {
        let (data, kernel, c) = ocsvm_problem(300, 4, 0.1, 0.5, 3);
        let cfg = SmoConfig {
            upper: c,
            tol: 1e-6,
            max_iter: 1,
        };
        let sol = SmoSolver::new(cfg)
            .solve_with(&mut KernelRows::new(kernel, &data))
            .unwrap();
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 1);
        let dense = GramMatrix::symmetric(kernel, &data);
        let (infeasible, gap) = dense_certificate(dense.matrix(), &sol.alpha, c);
        assert!(infeasible < 1e-12, "feasibility error {infeasible}");
        assert!(gap > cfg.tol);
        assert!(
            (gap - sol.kkt_gap).abs() < 1e-12,
            "{gap} vs {}",
            sol.kkt_gap
        );
        let qa = dense.matrix().matvec(&sol.alpha).unwrap();
        for (g, e) in sol.gradient.iter().zip(&qa) {
            assert!((g - e).abs() < 1e-12, "gradient is Qα over all n");
        }
    }

    #[test]
    fn objective_matches_dense_uniform_start_reference() {
        for (n, dim, nu, gamma, seed) in [
            (200, 6, 0.05, 0.5, 1),
            (120, 2, 0.2, 2.0, 2),
            (400, 11, 0.1, 0.1, 3),
        ] {
            let (data, kernel, c) = ocsvm_problem(n, dim, nu, gamma, seed);
            let dense = GramMatrix::symmetric(kernel, &data);
            // A tolerance tight enough that either solve's distance from
            // the optimum sits well below the compared 1e-9.
            let cfg = SmoConfig {
                upper: c,
                tol: 1e-10,
                max_iter: 1_000_000,
            };
            let sol = SmoSolver::new(cfg)
                .solve_with(&mut KernelRows::new(kernel, &data))
                .unwrap();
            let reference = dense_uniform_reference(dense.matrix(), c, cfg.tol);
            let (got, want) = (
                objective(dense.matrix(), &sol.alpha),
                objective(dense.matrix(), &reference),
            );
            assert!(
                (got - want).abs() <= 1e-9 * want.abs(),
                "n={n}: objective {got} vs reference {want}"
            );
        }
    }

    #[test]
    fn cold_start_is_sparse_and_feasible() {
        // C = 0.3: 1/C = 3.33…, so α starts at (0.3, 0.3, 0.3, 0.1, 0, …);
        // one budgeted update moves at most two coordinates.
        let q = Matrix::identity(8);
        let cfg = SmoConfig {
            upper: 0.3,
            tol: 1e-6,
            max_iter: 0,
        };
        let sol = SmoSolver::new(cfg).solve(&q).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(!sol.converged);
        let want = [0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0];
        for (a, w) in sol.alpha.iter().zip(want) {
            assert!((a - w).abs() < 1e-15, "{:?}", sol.alpha);
        }
    }

    #[test]
    fn identity_spreads_mass_uniformly() {
        let q = Matrix::identity(5);
        let sol = SmoSolver::new(SmoConfig::default()).solve(&q).unwrap();
        assert!(sol.converged);
        for a in &sol.alpha {
            assert!((a - 0.2).abs() < 1e-4, "alpha {a}");
        }
    }

    #[test]
    fn mass_conservation_invariant() {
        let q = Matrix::from_rows(&[&[1.0, 0.9, 0.1], &[0.9, 1.0, 0.2], &[0.1, 0.2, 1.0]]).unwrap();
        let sol = SmoSolver::new(SmoConfig::default()).solve(&q).unwrap();
        let mass: f64 = sol.alpha.iter().sum();
        assert!((mass - 1.0).abs() < 1e-10, "mass {mass}");
        assert!(sol.alpha.iter().all(|a| *a >= -1e-12 && *a <= 1.0 + 1e-12));
    }

    #[test]
    fn box_constraint_respected() {
        let q = Matrix::identity(4);
        let cfg = SmoConfig {
            upper: 0.3,
            ..Default::default()
        };
        let sol = SmoSolver::new(cfg).solve(&q).unwrap();
        for a in &sol.alpha {
            assert!(*a <= 0.3 + 1e-12 && *a >= -1e-12);
        }
        let mass: f64 = sol.alpha.iter().sum();
        assert!((mass - 1.0).abs() < 1e-10);
    }

    #[test]
    fn beats_or_matches_uniform_start() {
        let q = Matrix::from_rows(&[
            &[2.0, 0.5, 0.0, 0.1],
            &[0.5, 1.0, 0.3, 0.0],
            &[0.0, 0.3, 1.5, 0.2],
            &[0.1, 0.0, 0.2, 0.8],
        ])
        .unwrap();
        let sol = SmoSolver::new(SmoConfig::default()).solve(&q).unwrap();
        let uniform = vec![0.25; 4];
        assert!(objective(&q, &sol.alpha) <= objective(&q, &uniform) + 1e-12);
    }

    #[test]
    fn correlated_q_concentrates_on_uncorrelated_point() {
        // Points 0 and 1 are near-duplicates (high Q entries); point 2 is
        // independent. The optimum should shift mass toward point 2.
        let q =
            Matrix::from_rows(&[&[1.0, 0.99, 0.0], &[0.99, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let sol = SmoSolver::new(SmoConfig::default()).solve(&q).unwrap();
        assert!(
            sol.alpha[2] > sol.alpha[0],
            "alpha {:?} should favor the independent point",
            sol.alpha
        );
    }

    #[test]
    fn infeasible_and_invalid_configs_rejected() {
        let q = Matrix::identity(2);
        let infeasible = SmoConfig {
            upper: 0.4, // 0.4 * 2 < 1
            ..Default::default()
        };
        assert!(SmoSolver::new(infeasible).solve(&q).is_err());
        let negative = SmoConfig {
            upper: -1.0,
            ..Default::default()
        };
        assert!(SmoSolver::new(negative).solve(&q).is_err());
        assert!(SmoSolver::new(SmoConfig::default())
            .solve(&Matrix::zeros(2, 3))
            .is_err());
    }

    #[test]
    fn tight_box_forces_uniform() {
        // With C = 1/n exactly, the only feasible point is uniform.
        let q = Matrix::from_rows(&[&[3.0, 0.1], &[0.1, 1.0]]).unwrap();
        let cfg = SmoConfig {
            upper: 0.5,
            ..Default::default()
        };
        let sol = SmoSolver::new(cfg).solve(&q).unwrap();
        assert!((sol.alpha[0] - 0.5).abs() < 1e-9);
        assert!((sol.alpha[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn converged_solution_reports_small_gap() {
        let q = Matrix::from_rows(&[&[1.0, 0.9, 0.1], &[0.9, 1.0, 0.2], &[0.1, 0.2, 1.0]]).unwrap();
        let cfg = SmoConfig::default();
        let sol = SmoSolver::new(cfg).solve(&q).unwrap();
        assert!(sol.converged);
        assert!(sol.kkt_gap < cfg.tol * 10.0, "gap {}", sol.kkt_gap);
    }

    #[test]
    fn exhausted_budget_returns_unconverged_best_effort() {
        // An absurd tolerance with a one-iteration budget cannot converge.
        let q =
            Matrix::from_rows(&[&[1.0, 0.99, 0.0], &[0.99, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let cfg = SmoConfig {
            tol: 1e-15,
            max_iter: 1,
            ..Default::default()
        };
        let best_effort = SmoSolver::new(cfg).solve(&q).unwrap();
        assert!(!best_effort.converged);
        assert!(best_effort.kkt_gap > 0.0);
    }

    #[test]
    fn warm_start_from_optimum_converges_immediately() {
        let q = Matrix::from_rows(&[&[1.0, 0.9, 0.1], &[0.9, 1.0, 0.2], &[0.1, 0.2, 1.0]]).unwrap();
        let solver = SmoSolver::new(SmoConfig::default());
        let cold = solver.solve(&q).unwrap();
        let warm = solver.solve_with_start(&mut { &q }, &cold.alpha).unwrap();
        assert!(warm.converged);
        assert_eq!(warm.iterations, 0, "optimum should already satisfy KKT");
        for (a, b) in warm.alpha.iter().zip(&cold.alpha) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_start_repairs_infeasible_iterates() {
        let q = Matrix::identity(4);
        let solver = SmoSolver::new(SmoConfig {
            upper: 0.4,
            ..Default::default()
        });
        // Out-of-box, wrong-mass starts must be clamped back onto the
        // feasible set before iterating.
        for start in [
            vec![5.0, -3.0, 0.2, 0.1],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.1, 0.0, 0.0, 0.0],
        ] {
            let sol = solver.solve_with_start(&mut { &q }, &start).unwrap();
            let mass: f64 = sol.alpha.iter().sum();
            assert!((mass - 1.0).abs() < 1e-10, "mass {mass}");
            assert!(sol.alpha.iter().all(|a| *a >= -1e-12 && *a <= 0.4 + 1e-12));
            assert!(sol.converged);
        }
    }

    #[test]
    fn warm_start_rejects_bad_inputs() {
        let q = Matrix::identity(3);
        let solver = SmoSolver::new(SmoConfig::default());
        assert!(matches!(
            solver.solve_with_start(&mut { &q }, &[0.5, 0.5]),
            Err(StatsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            solver.solve_with_start(&mut { &q }, &[f64::NAN, 0.5, 0.5]),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn warm_start_matches_cold_solution() {
        let q = Matrix::from_rows(&[
            &[2.0, 0.5, 0.0, 0.1],
            &[0.5, 1.0, 0.3, 0.0],
            &[0.0, 0.3, 1.5, 0.2],
            &[0.1, 0.0, 0.2, 0.8],
        ])
        .unwrap();
        let solver = SmoSolver::new(SmoConfig::default());
        let cold = solver.solve(&q).unwrap();
        // A mildly perturbed optimum must land on the same solution.
        let start: Vec<f64> = cold.alpha.iter().map(|a| a + 0.01).collect();
        let warm = solver.solve_with_start(&mut { &q }, &start).unwrap();
        assert!(warm.converged);
        for (a, b) in warm.alpha.iter().zip(&cold.alpha) {
            assert!((a - b).abs() < 1e-4, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn gradient_output_matches_q_alpha() {
        let q = Matrix::from_rows(&[&[1.0, 0.2], &[0.2, 1.0]]).unwrap();
        let sol = SmoSolver::new(SmoConfig::default()).solve(&q).unwrap();
        let qa = q.matvec(&sol.alpha).unwrap();
        for (g, e) in sol.gradient.iter().zip(&qa) {
            assert!((g - e).abs() < 1e-9);
        }
    }
}
