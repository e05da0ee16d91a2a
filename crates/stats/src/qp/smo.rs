use sidefp_linalg::Matrix;

use crate::StatsError;

/// Maximal-violating-pair scan: `(i_best, g_min, j_best, g_max)` where `i`
/// ranges over coordinates free to increase (`α_i < C`) and `j` over those
/// free to decrease (`α_j > 0`). `usize::MAX` marks an empty candidate set.
fn select_pair(alpha: &[f64], grad: &[f64], c: f64) -> (usize, f64, usize, f64) {
    let mut i_best = usize::MAX;
    let mut g_min = f64::INFINITY;
    let mut j_best = usize::MAX;
    let mut g_max = f64::NEG_INFINITY;
    for (t, (&a, &g)) in alpha.iter().zip(grad.iter()).enumerate() {
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

/// A source of rows of the SMO matrix `Q`.
///
/// The solver only ever needs `Q` through three views: the working-set
/// pair of rows for the analytic update, the diagonal for the curvature
/// denominator, and one full mat-vec for the feasible start's gradient.
/// Abstracting those lets the same solver run off a dense precomputed
/// [`Matrix`] (fastest when `n²` fits comfortably in memory) or off an
/// on-demand kernel-row cache such as
/// [`KernelRowCache`](crate::KernelRowCache) (bounded memory for large
/// populations).
///
/// Methods take `&mut self` so row sources may cache computed rows.
pub trait WorkingSetQ {
    /// Number of rows/columns of the square matrix.
    fn len(&self) -> usize;

    /// `true` for an empty (0×0) matrix.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The diagonal entry `Q[i][i]`.
    fn diag(&mut self, i: usize) -> f64;

    /// Rows `i` and `j` as slices, `i ≠ j`.
    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]);

    /// The product `Q·α` (used once, for the feasible start's gradient).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `alpha.len()` differs
    /// from [`WorkingSetQ::len`].
    fn matvec(&mut self, alpha: &[f64]) -> Result<Vec<f64>, StatsError>;
}

/// Dense precomputed `Q`: rows are slices into the matrix storage.
impl WorkingSetQ for &Matrix {
    fn len(&self) -> usize {
        self.nrows()
    }

    fn diag(&mut self, i: usize) -> f64 {
        self[(i, i)]
    }

    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        (self.row(i), self.row(j))
    }

    fn matvec(&mut self, alpha: &[f64]) -> Result<Vec<f64>, StatsError> {
        Ok(Matrix::matvec(self, alpha)?)
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
    /// Final gradient `Qα` (useful for computing the SVM offset ρ).
    pub gradient: Vec<f64>,
    /// Number of pairwise updates performed.
    pub iterations: usize,
    /// Whether the KKT conditions were met within tolerance.
    pub converged: bool,
    /// KKT violation gap `g_max − g_min` at exit (below the configured
    /// tolerance when `converged`; callers use it to decide whether a
    /// best-effort solution is acceptable under a relaxed tolerance).
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
    /// matrix or an on-demand kernel-row cache.
    ///
    /// # Errors
    ///
    /// Same contract as [`SmoSolver::solve`].
    pub fn solve_with<Q: WorkingSetQ>(&self, q: &mut Q) -> Result<SmoSolution, StatsError> {
        let (n, c) = self.validate(q)?;

        // Feasible start: uniform weights, clipped into the box. Uniform is
        // always feasible because C·n ≥ 1.
        let mut alpha = vec![(1.0 / n as f64).min(c); n];
        // Repair any mass deficit from clipping (cannot happen for uniform,
        // but keep the invariant explicit).
        let mass: f64 = alpha.iter().sum();
        if (mass - 1.0).abs() > 1e-12 {
            let scale = 1.0 / mass;
            for a in &mut alpha {
                *a *= scale;
            }
        }

        self.iterate(q, alpha)
    }

    /// Solves the QP starting from a caller-supplied iterate instead of the
    /// uniform feasible point.
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

    /// The shared maximal-violating-pair loop, from an already-feasible
    /// iterate (`α ∈ [0, C]ⁿ`, `Σα = 1`).
    fn iterate<Q: WorkingSetQ>(
        &self,
        q: &mut Q,
        mut alpha: Vec<f64>,
    ) -> Result<SmoSolution, StatsError> {
        let n = q.len();
        let c = self.config.upper;

        // gradient = Qα.
        let mut grad = q.matvec(&alpha)?;

        // Maximal violating pair on the starting iterate:
        //   i (can increase): α_i < C with minimal gradient,
        //   j (can decrease): α_j > 0 with maximal gradient.
        let (mut i_best, mut g_min, mut j_best, mut g_max) = select_pair(&alpha, &grad, c);

        let mut iterations = 0;
        let mut converged = false;
        let mut kkt_gap = 0.0;
        while iterations < self.config.max_iter {
            if i_best == usize::MAX || j_best == usize::MAX {
                kkt_gap = 0.0;
                converged = true;
                break;
            }
            kkt_gap = g_max - g_min;
            if kkt_gap < self.config.tol {
                converged = true;
                break;
            }
            let (i, j) = (i_best, j_best);

            // Analytic update along e_i − e_j: minimize
            //   ½(α + δ(e_i − e_j))ᵀ Q (α + δ(e_i − e_j))
            // → δ* = (g_j − g_i) / (Q_ii + Q_jj − 2Q_ij).
            let dii = q.diag(i);
            let djj = q.diag(j);
            let (qi, qj) = q.pair(i, j);
            let denom = dii + djj - 2.0 * qi[j];
            let mut delta = if denom > 1e-12 {
                (grad[j] - grad[i]) / denom
            } else {
                // Flat direction: move as far as the box allows.
                f64::INFINITY
            };
            // Box clipping. NaN or non-positive steps mean the pair is
            // numerically stuck.
            delta = delta.min(c - alpha[i]).min(alpha[j]);
            if delta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                // Numerically stuck pair; treat as converged to avoid spin.
                converged = true;
                break;
            }

            alpha[i] += delta;
            alpha[j] -= delta;
            // Incremental gradient update grad += δ(Q e_i − Q e_j) fused
            // with the *next* pair selection: one pass over (grad, α, Q
            // rows) instead of an update pass plus a selection pass. The
            // gradient expression matches the plain loop element-for-element
            // (no cross-element reduction), so the trajectory is
            // bit-identical to the unfused form.
            i_best = usize::MAX;
            g_min = f64::INFINITY;
            j_best = usize::MAX;
            g_max = f64::NEG_INFINITY;
            for (t, ((g, &a), (&ki, &kj))) in grad
                .iter_mut()
                .zip(alpha.iter())
                .zip(qi.iter().zip(qj.iter()))
                .enumerate()
            {
                let v = *g + delta * (ki - kj);
                *g = v;
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
        }

        if !converged {
            // Budget exhausted: report the gap of the *final* iterate, not of
            // the one the last update started from.
            let mut g_min = f64::INFINITY;
            let mut g_max = f64::NEG_INFINITY;
            for t in 0..n {
                if alpha[t] < c - 1e-15 {
                    g_min = g_min.min(grad[t]);
                }
                if alpha[t] > 1e-15 {
                    g_max = g_max.max(grad[t]);
                }
            }
            kkt_gap = if g_min.is_finite() && g_max.is_finite() {
                (g_max - g_min).max(0.0)
            } else {
                0.0
            };
        }

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

    fn objective(q: &Matrix, alpha: &[f64]) -> f64 {
        let qa = q.matvec(alpha).unwrap();
        0.5 * alpha.iter().zip(&qa).map(|(a, b)| a * b).sum::<f64>()
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
