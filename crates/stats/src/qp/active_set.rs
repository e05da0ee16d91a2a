use sidefp_linalg::{vecops, LinalgError, Matrix};

use crate::StatsError;

/// Ridge on the Gram's diagonal, relative to its largest entry. Without it
/// the free block of an RBF Gram over close points is numerically singular.
const RIDGE: f64 = 1e-8;

/// Configuration for [`solve_box_band`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoxBandConfig {
    /// Upper bound `B` of the box `0 ≤ β_i ≤ B`.
    pub upper: f64,
    /// Half-width `ε` of the mean band `|mean(β) − 1| ≤ ε`.
    pub band: f64,
    /// Step budget: a step is one Newton step on the working set or the
    /// release of one constraint.
    pub max_iter: usize,
    /// KKT tolerance, relative to `max(1, ‖κ‖∞)`.
    pub tol: f64,
}

impl Default for BoxBandConfig {
    fn default() -> Self {
        BoxBandConfig {
            upper: 1000.0,
            band: 0.1,
            max_iter: 4000,
            tol: 1e-9,
        }
    }
}

/// Outcome of a box-band QP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxBandSolution {
    /// The iterate at exit; every iterate satisfies the box and the band.
    pub beta: Vec<f64>,
    /// Steps taken.
    pub iterations: usize,
    /// Whether the iterate carries a KKT certificate: the free block is
    /// stationary and every bound and band multiplier is at least `−tol`.
    pub converged: bool,
    /// KKT residual at exit, relative to `max(1, ‖κ‖∞)`: the larger of the
    /// free block's stationarity error and the most negative multiplier's
    /// magnitude.
    pub final_delta: f64,
}

/// Solves `min ½βᵀ(K + λI)β − κᵀβ` subject to `0 ≤ β_i ≤ B` and
/// `n(1 − ε) ≤ Σβ ≤ n(1 + ε)` with a primal active-set method.
///
/// This is the kernel-mean-matching QP (paper Eq. 4); `K` is a symmetric
/// positive semi-definite Gram matrix and `λ = 1e-8·max K_ii`. Each step
/// minimizes the objective over the free weights, with the bounded ones
/// fixed and `Σβ` held when the band is in the working set, by triangular
/// solves against a Cholesky factor of `K_FF + λI`. A ratio test cuts the
/// step at the first bound or band side it would cross and adds it; at a
/// working-set minimizer the constraint with the most negative multiplier
/// is released. The factor follows the free set by `O(f²)` row appends and
/// Givens row deletes. The solve stops on a KKT certificate, or after
/// `max_iter` steps with `converged = false`, which is not an error.
///
/// # Errors
///
/// - [`StatsError::DimensionMismatch`] if `kappa.len() != k.nrows()`.
/// - [`StatsError::InvalidParameter`] on non-positive `upper`/`band`, an
///   empty constraint set (`B < 1 − ε`), a non-finite `κ`, or a `K` that is
///   not finite and symmetric.
/// - [`StatsError::Linalg`] if `k` is not square, or is indefinite on a
///   free block.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::qp::{solve_box_band, BoxBandConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = Matrix::identity(3);
/// let sol = solve_box_band(&k, &[1.0, 1.0, 1.0], &BoxBandConfig::default())?;
/// // With K = I the unconstrained optimum is β = κ = 1, which is feasible.
/// assert!(sol.converged);
/// assert!(sol.beta.iter().all(|b| (b - 1.0).abs() < 1e-6));
/// # Ok(())
/// # }
/// ```
pub fn solve_box_band(
    k: &Matrix,
    kappa: &[f64],
    config: &BoxBandConfig,
) -> Result<BoxBandSolution, StatsError> {
    validate(k, kappa, config)?;
    let mut qp = ActiveSet::new(k, kappa, config)?;
    let scale = kappa.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
    let tol = config.tol * scale;
    let mut iterations = 0;
    loop {
        let (stationarity, multiplier, release) = qp.kkt();
        let converged = stationarity <= tol && multiplier >= -tol;
        if converged || iterations == config.max_iter {
            return Ok(BoxBandSolution {
                beta: qp.beta,
                iterations,
                converged,
                final_delta: stationarity.max(-multiplier).max(0.0) / scale,
            });
        }
        if stationarity <= tol {
            qp.release(release)?;
        } else {
            qp.newton_step();
        }
        iterations += 1;
    }
}

fn validate(k: &Matrix, kappa: &[f64], config: &BoxBandConfig) -> Result<(), StatsError> {
    if !k.is_square() {
        let shape = k.shape();
        return Err(StatsError::Linalg(LinalgError::NotSquare { shape }));
    }
    if kappa.len() != k.nrows() {
        let (expected, got) = (k.nrows(), kappa.len());
        return Err(StatsError::DimensionMismatch { expected, got });
    }
    let (upper, band) = (config.upper, config.band);
    let problem = if upper <= 0.0 {
        Some((
            "upper",
            format!("box upper bound must be positive, got {upper}"),
        ))
    } else if band <= 0.0 {
        Some((
            "band",
            format!("band half-width must be positive, got {band}"),
        ))
    } else if upper < 1.0 - band {
        let reason = format!("constraint set empty: upper bound {upper} < 1 - band {band}");
        Some(("upper", reason))
    } else if !kappa.iter().all(|v| v.is_finite()) {
        Some(("kappa", "linear term has non-finite entries".into()))
    } else if !(0..k.nrows())
        .all(|i| (0..=i).all(|j| k[(i, j)].is_finite() && k[(i, j)] == k[(j, i)]))
    {
        Some(("k", "kernel matrix must be finite and symmetric".into()))
    } else {
        None
    };
    match problem {
        Some((name, reason)) => Err(StatsError::InvalidParameter { name, reason }),
        None => Ok(()),
    }
}

/// Where a weight, or the band on `Σβ`, sits in the working set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    Free,
    Lower,
    Upper,
}

struct ActiveSet<'a> {
    k: &'a Matrix,
    kappa: &'a [f64],
    ridge: f64,
    upper: f64,
    /// The band's sides `n(1 − ε)` and `n(1 + ε)` on `Σβ`.
    sum_lo: f64,
    sum_hi: f64,
    beta: Vec<f64>,
    /// `(K + λI)β − κ`, rebuilt after every move.
    grad: Vec<f64>,
    state: Vec<Bound>,
    band: Bound,
    /// Free weights, in the row order of `factor`.
    free: Vec<usize>,
    factor: FreeFactor,
    /// Step scratch over the free set, and `(K_FF + λI)⁻¹1`.
    step: Vec<f64>,
    ones: Vec<f64>,
}

impl<'a> ActiveSet<'a> {
    /// The feasible start `β = min(1, B)`, free unless it sits on `B`.
    fn new(k: &'a Matrix, kappa: &'a [f64], config: &BoxBandConfig) -> Result<Self, StatsError> {
        let n = k.nrows();
        let max_diag = (0..n).map(|i| k[(i, i)]).fold(0.0_f64, f64::max);
        let start = config.upper.min(1.0);
        let state = if start < config.upper {
            Bound::Free
        } else {
            Bound::Upper
        };
        let mut qp = ActiveSet {
            k,
            kappa,
            ridge: RIDGE * if max_diag > 0.0 { max_diag } else { 1.0 },
            upper: config.upper,
            sum_lo: n as f64 * (1.0 - config.band),
            sum_hi: n as f64 * (1.0 + config.band),
            beta: vec![start; n],
            grad: vec![0.0; n],
            state: vec![Bound::Upper; n],
            band: Bound::Free,
            free: Vec::with_capacity(n),
            factor: FreeFactor::with_capacity(n),
            step: Vec::with_capacity(n),
            ones: Vec::with_capacity(n),
        };
        if state == Bound::Free {
            for i in 0..n {
                qp.release(Some(i))?;
            }
        }
        qp.update_grad();
        Ok(qp)
    }

    fn update_grad(&mut self) {
        for ((g, kap), b) in self.grad.iter_mut().zip(self.kappa).zip(&self.beta) {
            *g = self.ridge * b - kap;
        }
        for (j, &b) in self.beta.iter().enumerate().filter(|(_, b)| **b != 0.0) {
            vecops::axpy_mut(&mut self.grad, b, self.k.row(j));
        }
    }

    /// The free block's stationarity error, the most negative bound or band
    /// multiplier (`+∞` if none is active) and its constraint: a weight's
    /// index, or `None` for the band.
    fn kkt(&self) -> (f64, f64, Option<usize>) {
        // The band multiplier μ that best fits the free weights' gradients.
        let mu = match (self.band, self.free.len()) {
            (Bound::Free, _) | (_, 0) => 0.0,
            (_, f) => -self.free.iter().map(|&i| self.grad[i]).sum::<f64>() / f as f64,
        };
        let (mut worst, mut release) = match self.band {
            Bound::Lower => (-mu, None),
            Bound::Upper => (mu, None),
            Bound::Free => (f64::INFINITY, None),
        };
        for (i, (&g, &s)) in self.grad.iter().zip(&self.state).enumerate() {
            let multiplier = match s {
                Bound::Lower => g + mu,
                Bound::Upper => -(g + mu),
                Bound::Free => continue,
            };
            if multiplier < worst {
                (worst, release) = (multiplier, Some(i));
            }
        }
        let stationarity = self.free.iter().map(|&i| (self.grad[i] + mu).abs());
        (stationarity.fold(0.0, f64::max), worst, release)
    }

    /// Takes weight `i` (or, for `None`, the band) out of the working set.
    fn release(&mut self, c: Option<usize>) -> Result<(), StatsError> {
        match c {
            None => self.band = Bound::Free,
            Some(i) => {
                self.factor.append(self.k, self.ridge, &self.free, i)?;
                self.free.push(i);
                self.state[i] = Bound::Free;
            }
        }
        Ok(())
    }

    /// One Newton step on the working set, cut short at the first bound or
    /// band side it would cross, which then joins the working set.
    fn newton_step(&mut self) {
        // step = −(K_FF + λI)⁻¹(g_F + μ1), with μ such that Σ step = 0 when
        // the band is in the working set.
        self.step.clear();
        self.step.extend(self.free.iter().map(|&i| -self.grad[i]));
        self.factor.solve(&mut self.step);
        if self.band != Bound::Free {
            self.ones.clear();
            self.ones.resize(self.free.len(), 1.0);
            self.factor.solve(&mut self.ones);
            let mu = -self.step.iter().sum::<f64>() / self.ones.iter().sum::<f64>();
            vecops::axpy_mut(&mut self.step, mu, &self.ones);
        }

        let (mut alpha, mut blocking) = (1.0, None);
        for (r, (&i, &p)) in self.free.iter().zip(&self.step).enumerate() {
            let (room, side) = match p {
                p if p < 0.0 => (self.beta[i] / -p, Bound::Lower),
                p if p > 0.0 => ((self.upper - self.beta[i]) / p, Bound::Upper),
                _ => continue,
            };
            if room < alpha {
                (alpha, blocking) = (room.max(0.0), Some((Some(r), side)));
            }
        }
        if self.band == Bound::Free {
            let moved: f64 = self.step.iter().sum();
            let sum: f64 = self.beta.iter().sum();
            let (room, side) = if moved > 0.0 {
                ((self.sum_hi - sum) / moved, Bound::Upper)
            } else {
                ((self.sum_lo - sum) / moved, Bound::Lower)
            };
            if moved != 0.0 && room < alpha {
                (alpha, blocking) = (room.max(0.0), Some((None, side)));
            }
        }

        for (&i, &p) in self.free.iter().zip(&self.step) {
            self.beta[i] = (self.beta[i] + alpha * p).clamp(0.0, self.upper);
        }
        match blocking {
            Some((None, side)) => self.band = side,
            Some((Some(r), side)) => {
                let i = self.free.remove(r);
                self.factor.remove(r);
                self.state[i] = side;
                self.beta[i] = if side == Bound::Lower {
                    0.0
                } else {
                    self.upper
                };
            }
            None => {}
        }
        self.update_grad();
    }
}

/// Lower Cholesky factor `L` of `K_FF + λI`, rows packed in free-set
/// order: row `r` holds its `r + 1` entries from offset `r(r + 1)/2`.
struct FreeFactor {
    l: Vec<f64>,
    dim: usize,
    /// Scratch for the column a row delete folds back in.
    col: Vec<f64>,
}

fn offset(r: usize) -> usize {
    r * (r + 1) / 2
}

impl FreeFactor {
    fn with_capacity(n: usize) -> Self {
        FreeFactor {
            l: Vec::with_capacity(offset(n)),
            dim: 0,
            col: Vec::with_capacity(n),
        }
    }

    /// Appends weight `j` after the rows of `free`: one forward solve.
    fn append(
        &mut self,
        k: &Matrix,
        ridge: f64,
        free: &[usize],
        j: usize,
    ) -> Result<(), StatsError> {
        let (f, kj) = (self.dim, k.row(j));
        self.l.resize(offset(f + 1), 0.0);
        let (old, new) = self.l.split_at_mut(offset(f));
        for (r, &i) in free.iter().enumerate() {
            let row = &old[offset(r)..offset(r + 1)];
            new[r] = (kj[i] - vecops::dot(&row[..r], &new[..r])) / row[r];
        }
        let d2 = kj[j] + ridge - vecops::dot(&new[..f], &new[..f]);
        if d2.is_nan() || d2 <= 0.0 {
            self.l.truncate(offset(f));
            return Err(StatsError::Linalg(LinalgError::NotPositiveDefinite));
        }
        new[f] = d2.sqrt();
        self.dim += 1;
        Ok(())
    }

    /// Deletes row and column `q`: the rows below drop column `q`, and the
    /// trailing block absorbs it by a rank-one Givens update.
    fn remove(&mut self, q: usize) {
        let f = self.dim;
        self.col.clear();
        self.col.extend((q + 1..f).map(|r| self.l[offset(r) + q]));
        let mut w = offset(q);
        for r in q + 1..f {
            for c in (0..=r).filter(|&c| c != q) {
                self.l[w] = self.l[offset(r) + c];
                w += 1;
            }
        }
        self.dim = f - 1;
        self.l.truncate(offset(self.dim));
        let x = &mut self.col;
        for j in q..self.dim {
            let (ljj, xj) = (self.l[offset(j) + j], x[j - q]);
            let h = ljj.hypot(xj);
            let (c, s) = (h / ljj, xj / ljj);
            self.l[offset(j) + j] = h;
            for i in j + 1..self.dim {
                let lij = &mut self.l[offset(i) + j];
                *lij = (*lij + s * x[i - q]) / c;
                x[i - q] = c * x[i - q] - s * *lij;
            }
        }
    }

    /// Overwrites `b` with `(LLᵀ)⁻¹b`: a forward solve with `L`, then a
    /// column-oriented backward solve with `Lᵀ`.
    fn solve(&self, b: &mut [f64]) {
        for r in 0..self.dim {
            let row = &self.l[offset(r)..offset(r + 1)];
            b[r] = (b[r] - vecops::dot(&row[..r], &b[..r])) / row[r];
        }
        for r in (0..self.dim).rev() {
            let row = &self.l[offset(r)..offset(r + 1)];
            b[r] /= row[r];
            let x = b[r];
            vecops::axpy_mut(&mut b[..r], -x, &row[..r]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{descriptive, GramMatrix, Kernel, MultivariateNormal};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// KMM's QP (paper Eq. 4) for 1-D standard-normal training rows and
    /// test rows shifted by `shift` training sd: the RBF Gram, κ from the
    /// cross-kernel row sums and KMM's default box, band and budget.
    fn kmm_problem(n_train: usize, shift: f64, seed: u64) -> (Matrix, Vec<f64>, BoxBandConfig) {
        let n_test = n_train + n_train / 5;
        let mvn = MultivariateNormal::independent(vec![0.0], &[1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let train = mvn.sample_matrix(&mut rng, n_train);
        let mut test = mvn.sample_matrix(&mut rng, n_test);
        let sd = descriptive::std_dev(&train.col(0)).unwrap();
        for i in 0..n_test {
            test[(i, 0)] += shift * sd;
        }
        let kernel = Kernel::rbf_median_heuristic(&train.vstack(&test).unwrap()).unwrap();
        let k = GramMatrix::symmetric(kernel, &train).matrix().clone();
        let cross = GramMatrix::cross(kernel, &train, &test).unwrap();
        let ratio = n_train as f64 / n_test as f64;
        let kappa = (0..n_train)
            .map(|i| ratio * cross.row(i).iter().sum::<f64>())
            .collect();
        let root = (n_train as f64).sqrt();
        let config = BoxBandConfig {
            band: (root - 1.0) / root,
            ..Default::default()
        };
        (k, kappa, config)
    }

    /// Checks feasibility and the KKT sign conditions of `beta` from
    /// scratch, at `tol` relative to `max(1, ‖κ‖∞)`. Returns which of the
    /// box and the band bind.
    fn assert_kkt(
        k: &Matrix,
        kappa: &[f64],
        cfg: &BoxBandConfig,
        beta: &[f64],
        tol: f64,
    ) -> (bool, bool) {
        let n = beta.len() as f64;
        let tol = tol * kappa.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let max_diag = (0..k.nrows()).map(|i| k[(i, i)]).fold(0.0_f64, f64::max);
        let ridge = RIDGE * max_diag;
        let kb = k.matvec(beta).unwrap();
        let g: Vec<f64> = (0..beta.len())
            .map(|i| kb[i] + ridge * beta[i] - kappa[i])
            .collect();
        for b in beta {
            assert!(*b >= 0.0 && *b <= cfg.upper, "beta {b} outside the box");
        }
        let sum: f64 = beta.iter().sum();
        let slack = 1e-9 * n;
        let (lo, hi) = (n * (1.0 - cfg.band), n * (1.0 + cfg.band));
        assert!(
            sum >= lo - slack && sum <= hi + slack,
            "sum {sum} outside [{lo}, {hi}]"
        );
        let free: Vec<usize> = (0..beta.len())
            .filter(|&i| beta[i] > 0.0 && beta[i] < cfg.upper)
            .collect();
        // The band multiplier: pinned by the free variables if there are
        // any, else any value the bound multipliers allow, nearest zero.
        let mu = if free.is_empty() {
            let floor = (0..beta.len())
                .filter(|&i| beta[i] == 0.0)
                .map(|i| -g[i])
                .fold(f64::NEG_INFINITY, f64::max);
            let ceil = (0..beta.len())
                .filter(|&i| beta[i] == cfg.upper)
                .map(|i| -g[i])
                .fold(f64::INFINITY, f64::min);
            0.0_f64.clamp(floor.min(ceil), ceil.max(floor))
        } else {
            -free.iter().map(|&i| g[i]).sum::<f64>() / free.len() as f64
        };
        for (i, (&b, &gi)) in beta.iter().zip(&g).enumerate() {
            let reduced = gi + mu;
            if b == 0.0 {
                assert!(reduced >= -tol, "lower multiplier {reduced} at {i}");
            } else if b == cfg.upper {
                assert!(reduced <= tol, "upper multiplier {} at {i}", -reduced);
            } else {
                assert!(reduced.abs() <= tol, "stationarity {reduced} at {i}");
            }
        }
        if mu > tol {
            assert!(
                sum >= hi - slack,
                "band multiplier {mu} with sum {sum} off the upper side"
            );
        }
        if mu < -tol {
            assert!(
                sum <= lo + slack,
                "band multiplier {mu} with sum {sum} off the lower side"
            );
        }
        (
            beta.contains(&cfg.upper),
            sum <= lo + slack || sum >= hi - slack,
        )
    }

    #[test]
    fn paper_shift_problems_certify() {
        // 8.4 training sd is the paper-default silicon PCM shift: the
        // weights collapse onto a few rows, so nearly every variable leaves
        // the free set one step at a time. At 1 sd most weights stay free.
        for (n, shift) in [(37, 8.4), (100, 8.4), (103, 8.4), (100, 1.0), (100, 0.0)] {
            let (k, kappa, cfg) = kmm_problem(n, shift, 42 + n as u64);
            let sol = solve_box_band(&k, &kappa, &cfg).unwrap();
            assert!(sol.converged, "n={n} shift={shift}: {sol:?}");
            assert!(sol.iterations <= 2 * n, "n={n}: {} steps", sol.iterations);
            assert!(sol.final_delta <= cfg.tol);
            assert_kkt(&k, &kappa, &cfg, &sol.beta, 1e-8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_rbf_grams_reach_a_kkt_certificate(
            n in 2usize..41,
            dim in 1usize..4,
            gamma in 0.05_f64..20.0,
            shift in 0.0_f64..3.0,
            kappa_scale in 0.2_f64..5.0,
            upper in 1.0_f64..4.0,
            band in 0.01_f64..0.5,
            seed in 0u64..1_000_000,
        ) {
            // A small box, κ scaled away from the Gram's own row sums and
            // test rows off the training cloud make the box and each band
            // side bind in some cases.
            let mut rng = StdRng::seed_from_u64(seed);
            let mvn = MultivariateNormal::independent(vec![0.0; dim], &vec![1.0; dim]).unwrap();
            let train = mvn.sample_matrix(&mut rng, n);
            let mut test = mvn.sample_matrix(&mut rng, n);
            for i in 0..n {
                test[(i, 0)] += shift;
            }
            let kernel = Kernel::Rbf { gamma };
            let k = GramMatrix::symmetric(kernel, &train).matrix().clone();
            let cross = GramMatrix::cross(kernel, &train, &test).unwrap();
            let kappa: Vec<f64> = (0..n)
                .map(|i| kappa_scale * cross.row(i).iter().sum::<f64>())
                .collect();
            let cfg = BoxBandConfig { upper, band, ..Default::default() };
            let sol = solve_box_band(&k, &kappa, &cfg).unwrap();
            prop_assert!(sol.converged, "{:?}", sol);
            prop_assert!(sol.final_delta <= cfg.tol);
            assert_kkt(&k, &kappa, &cfg, &sol.beta, 1e-7);
        }
    }

    #[test]
    fn factor_updates_match_a_fresh_factorization() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0])
            .unwrap()
            .sample_matrix(&mut rng, 12);
        let k = GramMatrix::symmetric(Kernel::Rbf { gamma: 0.7 }, &x)
            .matrix()
            .clone();
        let ridge = 1e-3;
        let mut factor = FreeFactor::with_capacity(12);
        let mut free = Vec::new();
        for j in [4, 0, 9, 2, 11, 7, 1, 5] {
            factor.append(&k, ridge, &free, j).unwrap();
            free.push(j);
        }
        for q in [0, 3, 5] {
            factor.remove(q);
            free.remove(q);
        }
        factor.append(&k, ridge, &free, 3).unwrap();
        free.push(3);
        let mut fresh = FreeFactor::with_capacity(12);
        for (r, &j) in free.iter().enumerate() {
            fresh.append(&k, ridge, &free[..r], j).unwrap();
        }
        assert_eq!(factor.dim, free.len());
        for (a, b) in factor.l.iter().zip(&fresh.l) {
            assert!((a - b).abs() < 1e-12, "updated {a} vs fresh {b}");
        }
        // Both solve the free block's system.
        let rhs: Vec<f64> = (0..free.len()).map(|r| r as f64 - 2.0).collect();
        let mut x = rhs.clone();
        factor.solve(&mut x);
        for (r, &i) in free.iter().enumerate() {
            let lhs: f64 = free
                .iter()
                .zip(&x)
                .map(|(&j, xj)| k[(i, j)] * xj)
                .sum::<f64>()
                + ridge * x[r];
            assert!((lhs - rhs[r]).abs() < 1e-10, "row {r}: {lhs} vs {}", rhs[r]);
        }
    }

    #[test]
    fn identity_kernel_recovers_kappa_when_feasible() {
        let k = Matrix::identity(4);
        let kappa = vec![0.9, 1.1, 1.0, 1.0];
        let sol = solve_box_band(&k, &kappa, &BoxBandConfig::default()).unwrap();
        for (b, t) in sol.beta.iter().zip(&kappa) {
            assert!((b - t).abs() < 1e-6, "beta {b} target {t}");
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
        let sol = solve_box_band(&k, &kappa, &cfg).unwrap();
        assert!(sol.converged);
        for b in &sol.beta {
            assert!(*b <= 2.0 && *b >= 0.0);
        }
        let mean: f64 = sol.beta.iter().sum::<f64>() / 2.0;
        assert!(mean <= 1.5 + 1e-9, "mean {mean} violates band");
        assert_kkt(&k, &kappa, &cfg, &sol.beta, 1e-9);
    }

    #[test]
    fn mean_band_holds() {
        let k = Matrix::identity(3);
        let kappa = vec![0.0, 0.0, 0.0]; // optimum wants all zeros
        let cfg = BoxBandConfig {
            band: 0.2,
            ..Default::default()
        };
        let sol = solve_box_band(&k, &kappa, &cfg).unwrap();
        let mean: f64 = sol.beta.iter().sum::<f64>() / 3.0;
        assert!(mean >= 0.8 - 1e-9, "mean {mean} fell below the band");
        assert_eq!(assert_kkt(&k, &kappa, &cfg, &sol.beta, 1e-9), (false, true));
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
        let sol = solve_box_band(&a, &kappa, &BoxBandConfig::default()).unwrap();
        assert!(obj(&sol.beta) <= obj(&start) + 1e-9);
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
    fn rejects_non_finite_and_asymmetric_inputs_typed() {
        let cfg = BoxBandConfig::default();
        let mut k = Matrix::identity(3);
        k[(0, 2)] = 0.5;
        let asymmetric = solve_box_band(&k, &[1.0; 3], &cfg);
        assert!(matches!(
            asymmetric,
            Err(StatsError::InvalidParameter { name: "k", .. })
        ));
        k[(2, 0)] = 0.5;
        k[(1, 1)] = f64::INFINITY;
        let infinite = solve_box_band(&k, &[1.0; 3], &cfg);
        assert!(matches!(
            infinite,
            Err(StatsError::InvalidParameter { name: "k", .. })
        ));
        let nan_kappa = solve_box_band(&Matrix::identity(3), &[1.0, f64::NAN, 1.0], &cfg);
        assert!(matches!(
            nan_kappa,
            Err(StatsError::InvalidParameter { name: "kappa", .. })
        ));
        // An indefinite K breaks the free block's factor: a typed error.
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            solve_box_band(&indefinite, &[1.0, 1.0], &cfg),
            Err(StatsError::Linalg(LinalgError::NotPositiveDefinite))
        ));
    }

    #[test]
    fn converged_solve_carries_a_kkt_certificate() {
        let k = Matrix::identity(3);
        let kappa = vec![1.0, 1.0, 1.0];
        let sol = solve_box_band(&k, &kappa, &BoxBandConfig::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.final_delta <= BoxBandConfig::default().tol);
        assert!(sol.iterations >= 1);
        // A zero budget reports the feasible start's own residual.
        let start = solve_box_band(
            &k,
            &[2.0, 1.0, 0.0],
            &BoxBandConfig {
                max_iter: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(start.iterations, 0);
        assert!(!start.converged);
        assert_eq!(start.beta, vec![1.0; 3]);
        assert!((start.final_delta - 0.5).abs() < 1e-6, "{start:?}");
    }

    #[test]
    fn strict_solve_errors_when_budget_exhausted() {
        let k = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 1.0]]).unwrap();
        let kappa = vec![3.0, 0.2];
        let cfg = BoxBandConfig {
            max_iter: 1,
            ..Default::default()
        };
        let sol = solve_box_band(&k, &kappa, &cfg).unwrap();
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 1);
        assert!(sol.final_delta > cfg.tol);
        // The uncertified iterate is still feasible.
        let sum: f64 = sol.beta.iter().sum();
        assert!(sol.beta.iter().all(|b| (0.0..=cfg.upper).contains(b)));
        assert!((1.8 - 1e-12..=2.2 + 1e-12).contains(&sum), "sum {sum}");
        // With the default budget the same problem certifies.
        let full = solve_box_band(&k, &kappa, &BoxBandConfig::default()).unwrap();
        assert!(full.converged);
        assert_kkt(&k, &kappa, &BoxBandConfig::default(), &full.beta, 1e-9);
    }

    #[test]
    fn tight_box_start_satisfies_both_sets() {
        // B < 1: the start puts every weight on B, the band's lower side
        // then holds the sum although κ = 0 pulls every weight to zero.
        let k = Matrix::identity(3);
        let cfg = BoxBandConfig {
            upper: 0.9,
            band: 0.3,
            ..Default::default()
        };
        let sol = solve_box_band(&k, &[0.0; 3], &cfg).unwrap();
        assert!(sol.converged);
        let mean: f64 = sol.beta.iter().sum::<f64>() / 3.0;
        assert!((mean - 0.7).abs() < 1e-9, "mean {mean}");
        assert_eq!(
            assert_kkt(&k, &[0.0; 3], &cfg, &sol.beta, 1e-9),
            (false, true)
        );
    }
}
