//! Low-rank / sub-quadratic kernel approximations.
//!
//! The paper's flow calibrates on `n = 1000` devices, where dense `n × n`
//! Gram matrices are the fastest backing store. Foundry-scale populations
//! (10⁵–10⁶ devices per lot) make everything quadratic in `n` explode, so
//! this module provides the two classic low-rank routes around the Gram
//! matrix, both reduced to an explicit feature map `Φ` (`n × r`, `r ≪ n`)
//! with `k(x_i, x_j) ≈ ⟨φ_i, φ_j⟩`:
//!
//! - **Nyström** ([`KernelFeatureMap::nystrom`]): `r` landmark rows chosen
//!   deterministically via the SplitMix64 fork machinery, an
//!   eigendecomposition of the landmark Gram, and
//!   `Φ = K(X, L) · U Λ^{-1/2}`. Works for every kernel.
//! - **Random Fourier features** ([`KernelFeatureMap::rff`]): Bochner
//!   sampling of the RBF kernel's spectral measure,
//!   `φ(x)_j = √(2/D)·cos(ω_jᵀx + b_j)` with per-feature deterministic
//!   RNG streams. RBF only.
//!
//! Which route (if any) a solver takes is selected by [`KernelApprox`] —
//! `Exact` preserves the historical dense path bit-for-bit, and the
//! default `Auto` policy only leaves it above
//! [`KernelApprox::AUTO_EXACT_LIMIT`] rows, so the paper-scale pipeline
//! is untouched.
//!
//! Determinism: landmark selection, feature draws, and every reduction
//! in this module are fixed functions of the input data and seed — never
//! of thread count — so approximate results are bit-identical at any
//! worker-pool size, exactly like the exact paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_linalg::{lowrank, vecops, Matrix};

use crate::qp::{select_pair, SmoConfig, SmoSolution, WorkingSetQ};
use crate::{check_finite_matrix, GramMatrix, Kernel, MultivariateNormal, StatsError};

/// Master seed for every deterministic random choice the approximation
/// layer makes (landmark selection, Fourier feature draws). Forked per
/// fit via [`approx_fit_seed`] so distinct population sizes decorrelate.
pub(crate) const APPROX_SEED: u64 = 0x51DE_F9A9_0C85_EED5;

/// Derives the per-fit approximation seed for a population of `n` rows.
pub(crate) fn approx_fit_seed(n: usize) -> u64 {
    sidefp_parallel::fork_seed(APPROX_SEED, n as u64)
}

/// Working-set block size of the feature-space decomposition solver.
const FEATURE_SMO_BLOCK: usize = 128;

/// Inner pairwise updates per outer round, as a multiple of the block
/// size actually selected.
const FEATURE_SMO_INNER: usize = 8;

/// Kernel-approximation policy for the Gram-matrix consumers (OCSVM
/// training, KMM weight solve).
///
/// `Exact` is the historical dense path, unchanged bit-for-bit. The two
/// approximate variants trade a bounded amount of accuracy for
/// sub-quadratic cost; see the crate's accuracy property-tests for the
/// bounds that are pinned. `Auto` (the default) stays exact up to
/// [`KernelApprox::AUTO_EXACT_LIMIT`] rows and only switches above that,
/// so default-configured paper-scale runs never change value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum KernelApprox {
    /// Dense pairwise kernels — the historical path.
    Exact,
    /// Nyström landmark approximation with the given target rank
    /// (clamped to the population size at fit time).
    Nystrom {
        /// Number of landmark rows (and feature dimensions).
        rank: usize,
    },
    /// Random Fourier features (RBF kernels only) with the given number
    /// of cosine features.
    Rff {
        /// Number of random Fourier features `D`.
        features: usize,
    },
    /// Size-threshold policy: exact up to
    /// [`KernelApprox::AUTO_EXACT_LIMIT`] rows, then
    /// [`KernelApprox::Rff`] for RBF kernels and [`KernelApprox::Nystrom`]
    /// for everything else.
    #[default]
    Auto,
}

impl KernelApprox {
    /// Largest population the `Auto` policy still solves exactly. Matches
    /// the OCSVM's dense-Gram limit, so `Auto` never changes the value of
    /// a run that previously fit the dense path.
    pub const AUTO_EXACT_LIMIT: usize = 4096;

    /// Feature count the `Auto` policy picks for RBF kernels.
    pub const AUTO_RFF_FEATURES: usize = 256;

    /// Landmark rank the `Auto` policy picks for non-RBF kernels.
    pub const AUTO_NYSTROM_RANK: usize = 128;

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for a zero rank or zero
    /// feature count.
    pub fn validate(&self) -> Result<(), StatsError> {
        match *self {
            KernelApprox::Nystrom { rank: 0 } => Err(StatsError::InvalidParameter {
                name: "approx.rank",
                reason: "Nyström rank must be at least 1".into(),
            }),
            KernelApprox::Rff { features: 0 } => Err(StatsError::InvalidParameter {
                name: "approx.features",
                reason: "RFF feature count must be at least 1".into(),
            }),
            _ => Ok(()),
        }
    }

    /// Resolves the policy for a fit over `n` rows under `kernel`:
    /// `Auto` becomes one of the three concrete variants, which pass
    /// through unchanged.
    pub fn resolve(&self, n: usize, kernel: &Kernel) -> KernelApprox {
        match *self {
            KernelApprox::Auto => {
                if n <= Self::AUTO_EXACT_LIMIT {
                    KernelApprox::Exact
                } else if matches!(kernel, Kernel::Rbf { .. }) {
                    KernelApprox::Rff {
                        features: Self::AUTO_RFF_FEATURES,
                    }
                } else {
                    KernelApprox::Nystrom {
                        rank: Self::AUTO_NYSTROM_RANK,
                    }
                }
            }
            concrete => concrete,
        }
    }
}

/// Deterministic landmark choice: a partial Fisher–Yates shuffle driven by
/// [`sidefp_parallel::fork_seed`] streams, returning `rank` distinct row
/// indices in ascending order. A pure function of `(n, rank, seed)`.
fn select_landmarks(n: usize, rank: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for j in 0..rank.min(n) {
        let span = (n - j) as u64;
        let pick = j + (sidefp_parallel::fork_seed(seed, j as u64) % span) as usize;
        idx.swap(j, pick);
    }
    let mut out = idx[..rank.min(n)].to_vec();
    out.sort_unstable();
    out
}

/// The internals that differ between the two approximation routes.
#[derive(Debug, Clone)]
enum MapKind {
    Nystrom {
        /// The landmark rows themselves, `r × d`.
        landmarks: Matrix,
        /// `U Λ^{-1/2}` of the landmark Gram, `r × r`.
        factor: Matrix,
    },
    Rff {
        /// Frequency rows `ω_j`, one per feature: `D × d`.
        omega: Matrix,
        /// Phase offsets `b_j ∈ [0, 2π)`, one per feature.
        offsets: Vec<f64>,
        /// Normalization `√(2/D)`.
        scale: f64,
    },
}

/// An explicit finite-dimensional feature map approximating a kernel:
/// `k(x, y) ≈ ⟨φ(x), φ(y)⟩`.
///
/// Construction embeds the fitted data once (`Φ`, `n × r`); new rows are
/// embedded on demand with [`KernelFeatureMap::embed_rows`]. Gram-vector
/// products collapse to two thin GEMV passes (`Φ(Φᵀv)`), which is what
/// makes the KMM solve and the SMO working-set refreshes sub-quadratic.
#[derive(Debug, Clone)]
pub struct KernelFeatureMap {
    kernel: Kernel,
    kind: MapKind,
    features: Matrix,
}

impl KernelFeatureMap {
    /// Builds a Nyström feature map of the given target rank over `data`'s
    /// rows. `rank` is clamped to the number of rows; landmark selection
    /// is deterministic in `(data size, rank, seed)`.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InvalidParameter`] for an invalid kernel, a zero
    ///   rank, or non-finite data.
    /// - [`StatsError::InsufficientData`] for an empty data matrix.
    /// - [`StatsError::Linalg`] when the landmark Gram has no positive
    ///   eigenvalue (identically zero kernel).
    pub fn nystrom(
        kernel: Kernel,
        data: &Matrix,
        rank: usize,
        seed: u64,
    ) -> Result<Self, StatsError> {
        kernel.validate()?;
        KernelApprox::Nystrom { rank }.validate()?;
        let n = data.nrows();
        if n == 0 || data.ncols() == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        check_finite_matrix("data", data)?;
        let landmarks = data.select_rows(&select_landmarks(n, rank, seed));
        let w = GramMatrix::symmetric(kernel, &landmarks);
        let factor = lowrank::inverse_sqrt_factor(w.matrix(), lowrank::REL_EIGEN_CLIP)?;
        let cross = GramMatrix::cross(kernel, data, &landmarks)?;
        let features = cross.matmul(&factor)?;
        Ok(KernelFeatureMap {
            kernel,
            kind: MapKind::Nystrom { landmarks, factor },
            features,
        })
    }

    /// Builds a random-Fourier-feature map with `features` cosine features
    /// over `data`'s rows. Each feature draws its frequencies and phase
    /// from its own forked RNG stream, so the map is a pure function of
    /// `(kernel, data shape, features, seed)` at any thread count.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InvalidParameter`] if the kernel is not RBF, the
    ///   feature count is zero, or the data is non-finite.
    /// - [`StatsError::InsufficientData`] for an empty data matrix.
    pub fn rff(
        kernel: Kernel,
        data: &Matrix,
        features: usize,
        seed: u64,
    ) -> Result<Self, StatsError> {
        kernel.validate()?;
        KernelApprox::Rff { features }.validate()?;
        let Kernel::Rbf { gamma } = kernel else {
            return Err(StatsError::InvalidParameter {
                name: "approx",
                reason: "random Fourier features require an RBF kernel".into(),
            });
        };
        let n = data.nrows();
        let d = data.ncols();
        if n == 0 || d == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        check_finite_matrix("data", data)?;
        // Bochner: exp(−γ‖δ‖²) = E[cos(ωᵀδ)] for ω ~ N(0, 2γ I).
        let sd = (2.0 * gamma).sqrt();
        let draws: Vec<Vec<f64>> = sidefp_parallel::map_indexed(features, |j| {
            let mut rng = StdRng::seed_from_u64(sidefp_parallel::fork_seed(seed, j as u64));
            let mut vals = Vec::with_capacity(d + 1);
            for _ in 0..d {
                vals.push(MultivariateNormal::standard_normal(&mut rng) * sd);
            }
            let u: f64 = rng.random();
            vals.push(u * std::f64::consts::TAU);
            vals
        });
        let omega = Matrix::from_fn(features, d, |j, t| draws[j][t]);
        let offsets: Vec<f64> = draws.iter().map(|v| v[d]).collect();
        let scale = (2.0 / features as f64).sqrt();
        let features_mat = rff_embed(&omega, &offsets, scale, data)?;
        Ok(KernelFeatureMap {
            kernel,
            kind: MapKind::Rff {
                omega,
                offsets,
                scale,
            },
            features: features_mat,
        })
    }

    /// The kernel this map approximates.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The embedded fitted data `Φ` (`n × r`).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Feature dimension `r` of the map.
    pub fn feature_count(&self) -> usize {
        self.features.ncols()
    }

    /// Number of fitted rows.
    pub fn len(&self) -> usize {
        self.features.nrows()
    }

    /// `true` when no rows were fitted.
    pub fn is_empty(&self) -> bool {
        self.features.nrows() == 0
    }

    /// Embeds new rows into the feature space: returns `Φ(x)` with one
    /// feature row per input row.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `x`'s column count
    /// differs from the fitted data's.
    pub fn embed_rows(&self, x: &Matrix) -> Result<Matrix, StatsError> {
        match &self.kind {
            MapKind::Nystrom {
                landmarks, factor, ..
            } => {
                let cross = GramMatrix::cross(self.kernel, x, landmarks)?;
                Ok(cross.matmul(factor)?)
            }
            MapKind::Rff {
                omega,
                offsets,
                scale,
            } => {
                if x.ncols() != omega.ncols() {
                    return Err(StatsError::DimensionMismatch {
                        expected: omega.ncols(),
                        got: x.ncols(),
                    });
                }
                rff_embed(omega, offsets, *scale, x)
            }
        }
    }

    /// The full approximate Gram matrix `Φ Φᵀ` (`n × n`) — intended for
    /// tests and small-`n` diagnostics, not production paths.
    ///
    /// # Errors
    ///
    /// Propagates matrix-multiplication shape errors (cannot happen for a
    /// well-formed map).
    pub fn approx_gram(&self) -> Result<Matrix, StatsError> {
        Ok(self.features.matmul_nt(&self.features)?)
    }

    /// Converts a feature-space linear functional `w` into the standalone
    /// parts of a decision function `f(x) = ⟨w, φ(x)⟩`:
    ///
    /// - Nyström collapses exactly to a kernel expansion over the
    ///   landmarks (`coeffs = U Λ^{-1/2} w`), the same form as an exact
    ///   SVM's support-vector expansion;
    /// - RFF keeps `w` and hands back the feature parameters.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Linalg`] on a `w` length mismatch.
    pub(crate) fn decision_parts(&self, w: &[f64]) -> Result<DecisionParts, StatsError> {
        match &self.kind {
            MapKind::Nystrom {
                landmarks, factor, ..
            } => Ok(DecisionParts::Expansion {
                points: landmarks.clone(),
                coeffs: factor.matvec(w)?,
            }),
            MapKind::Rff {
                omega,
                offsets,
                scale,
            } => Ok(DecisionParts::Random {
                omega: omega.clone(),
                offsets: offsets.clone(),
                scale: *scale,
                w: w.to_vec(),
            }),
        }
    }
}

/// Standalone decision-function parts produced by
/// [`KernelFeatureMap::decision_parts`].
pub(crate) enum DecisionParts {
    /// `f(x) = Σ_l coeffs_l · k(points_l, x)` — the classic expansion.
    Expansion {
        /// Expansion points (the Nyström landmarks).
        points: Matrix,
        /// Expansion coefficients.
        coeffs: Vec<f64>,
    },
    /// `f(x) = Σ_j w_j · scale · cos(ω_jᵀx + b_j)` — random features.
    Random {
        /// Frequency rows, one per feature.
        omega: Matrix,
        /// Phase offsets, one per feature.
        offsets: Vec<f64>,
        /// Normalization `√(2/D)`.
        scale: f64,
        /// Feature-space weights.
        w: Vec<f64>,
    },
}

/// `cos(X Ωᵀ + b) · scale` — the projection runs on the packed GEMM's
/// transposed-B path (no materialized `Ωᵀ`), the element-wise cosine map
/// fans rows out across the worker pool (each output element depends only
/// on its own row, so the result is bit-identical at any thread count).
fn rff_embed(
    omega: &Matrix,
    offsets: &[f64],
    scale: f64,
    x: &Matrix,
) -> Result<Matrix, StatsError> {
    let mut p = x.matmul_nt(omega)?;
    let ncols = p.ncols();
    sidefp_parallel::for_each_row_mut(p.as_mut_slice(), ncols, |_, row| {
        for (v, b) in row.iter_mut().zip(offsets) {
            *v = (*v + b).cos() * scale;
        }
    });
    Ok(p)
}

/// Sentinel for "no owner" in [`LowRankQ`]'s slot bookkeeping.
const NONE: usize = usize::MAX;

/// [`WorkingSetQ`] backend over an explicit feature map: serves rows of
/// the approximate SMO matrix `Q[i][j] = ⟨φ_i, φ_j⟩` from a small LRU
/// slot set (recomputed on miss at `O(n·r)` instead of `O(n·d)` kernel
/// evaluations), with the one-off mat-vec collapsed to `Φ(Φᵀα)`.
///
/// This makes the approximate paths drop-in swappable with the dense
/// Gram and [`crate::KernelRowCache`] backends behind the same solver.
#[derive(Debug)]
pub struct LowRankQ<'a> {
    features: &'a Matrix,
    diag: Vec<f64>,
    slots: Vec<Vec<f64>>,
    owner: Vec<usize>,
    stamp: Vec<u64>,
    clock: u64,
    misses: usize,
}

impl<'a> LowRankQ<'a> {
    /// Creates a row source over the fitted feature rows of `map`,
    /// holding at most `capacity` rows (clamped like
    /// [`crate::KernelRowCache::new`]).
    pub fn new(map: &'a KernelFeatureMap, capacity: usize) -> Self {
        let features = map.features();
        let n = features.nrows();
        let capacity = capacity.max(2).min(n.max(2));
        let diag = (0..n).map(|i| vecops::sq_norm(features.row(i))).collect();
        LowRankQ {
            features,
            diag,
            slots: vec![Vec::new(); capacity],
            owner: vec![NONE; capacity],
            stamp: vec![0; capacity],
            clock: 0,
            misses: 0,
        }
    }

    /// Number of rows recomputed because they were not cached.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Ensures row `i` is materialized and returns its slot, never
    /// evicting the row owned by `protect`.
    fn ensure(&mut self, i: usize, protect: usize) -> usize {
        self.clock += 1;
        if let Some(slot) = self.owner.iter().position(|&o| o == i) {
            self.stamp[slot] = self.clock;
            return slot;
        }
        self.misses += 1;
        let mut victim = NONE;
        for s in 0..self.owner.len() {
            if self.owner[s] == protect && protect != NONE {
                continue;
            }
            if victim == NONE || self.stamp[s] < self.stamp[victim] {
                victim = s;
            }
        }
        let features = self.features;
        let xi = features.row(i);
        let row = &mut self.slots[victim];
        row.clear();
        row.reserve(features.nrows());
        for fj in features.rows_iter() {
            row.push(vecops::dot(xi, fj));
        }
        self.owner[victim] = i;
        self.stamp[victim] = self.clock;
        victim
    }
}

impl WorkingSetQ for LowRankQ<'_> {
    fn len(&self) -> usize {
        self.features.nrows()
    }

    fn diag(&mut self, i: usize) -> f64 {
        self.diag[i]
    }

    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        let si = self.ensure(i, NONE);
        let sj = self.ensure(j, i);
        (&self.slots[si], &self.slots[sj])
    }

    fn matvec(&mut self, alpha: &[f64]) -> Result<Vec<f64>, StatsError> {
        let n = self.features.nrows();
        if alpha.len() != n {
            return Err(StatsError::DimensionMismatch {
                expected: n,
                got: alpha.len(),
            });
        }
        // Φ(Φᵀα): the sequential accumulation of w keeps the result a pure
        // function of (Φ, α); the outer products are per-row independent.
        let mut w = vec![0.0; self.features.ncols()];
        for (i, row) in self.features.rows_iter().enumerate() {
            vecops::axpy_mut(&mut w, alpha[i], row);
        }
        let features = self.features;
        Ok(sidefp_parallel::map_indexed(n, |i| {
            vecops::dot(features.row(i), &w)
        }))
    }
}

/// Deterministic working-set selection for [`solve_feature_smo`]: the
/// `cap/2` most violating coordinates from each side (smallest gradients
/// free to increase, largest free to decrease), merged and sorted.
fn select_block(alpha: &[f64], grad: &[f64], c: f64, cap: usize) -> Vec<usize> {
    let n = alpha.len();
    let mut ups: Vec<usize> = (0..n).filter(|&t| alpha[t] < c - 1e-15).collect();
    let mut downs: Vec<usize> = (0..n).filter(|&t| alpha[t] > 1e-15).collect();
    let half = cap.div_ceil(2);
    // Partial selection of the `half` most violating coordinates per side:
    // a full sort of both candidate lists is O(n log n) per round and
    // dominates at large n. The (gradient, index) comparator is a total
    // order, so the selected *set* is unique — identical to what the full
    // sort would pick — regardless of partition internals.
    if ups.len() > half {
        ups.select_nth_unstable_by(half - 1, |&a, &b| {
            grad[a].total_cmp(&grad[b]).then(a.cmp(&b))
        });
        ups.truncate(half);
    }
    if downs.len() > half {
        downs.select_nth_unstable_by(half - 1, |&a, &b| {
            grad[b].total_cmp(&grad[a]).then(a.cmp(&b))
        });
        downs.truncate(half);
    }
    let mut block: Vec<usize> = ups.into_iter().chain(downs).collect();
    block.sort_unstable();
    block.dedup();
    block
}

/// Decomposition SMO in feature space: solves `min ½αᵀ(ΦΦᵀ)α` over
/// `Σα = 1`, `0 ≤ α_i ≤ C` without ever materializing `ΦΦᵀ`.
///
/// Each outer round refreshes the exact gradient `Φ(Φᵀα)` in `O(n·r)`,
/// checks global KKT optimality, then runs a budgeted exact SMO on a
/// small dense block of the most violating coordinates. All reductions
/// are fixed-order, so the trajectory is bit-identical at any thread
/// count.
///
/// # Errors
///
/// Same contract as [`crate::qp::SmoSolver::solve`]: invalid/infeasible
/// `upper` is rejected; budget exhaustion returns a best-effort solution
/// with `converged = false` instead of an error.
pub(crate) fn solve_feature_smo(
    phi: &Matrix,
    config: &SmoConfig,
) -> Result<SmoSolution, StatsError> {
    let n = phi.nrows();
    let c = config.upper;
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

    // Feasible start: uniform, clipped, mass-repaired (see SmoSolver).
    let mut alpha = vec![(1.0 / n as f64).min(c); n];
    let mass: f64 = alpha.iter().sum();
    if (mass - 1.0).abs() > 1e-12 {
        let scale = 1.0 / mass;
        for a in &mut alpha {
            *a *= scale;
        }
    }

    // w = Φᵀα is built once (sequential, fixed order) and then maintained
    // incrementally: a block round changes at most `block_cap` alphas, so
    // the per-round update is O(block·r) instead of the O(n·r) rebuild
    // that would otherwise dominate every round at large n. The update
    // order is fixed, so the accumulated rounding is bit-reproducible.
    let mut w = vec![0.0; phi.ncols()];
    for (i, row) in phi.rows_iter().enumerate() {
        if alpha[i] != 0.0 {
            vecops::axpy_mut(&mut w, alpha[i], row);
        }
    }
    let mut grad = vec![0.0; n];
    let mut iterations = 0usize;
    let mut converged = false;
    let kkt_gap;
    let block_cap = FEATURE_SMO_BLOCK.min(n.max(2));

    loop {
        // Gradient refresh from the maintained w: grad_i = ⟨φ_i, w⟩
        // (per-element independent, so the parallel map is deterministic).
        let fresh = {
            let w = &w;
            sidefp_parallel::map_indexed(n, |i| vecops::dot(phi.row(i), w))
        };
        grad.copy_from_slice(&fresh);

        let (i_best, g_min, j_best, g_max) = select_pair(&alpha, &grad, c);
        if i_best == NONE || j_best == NONE {
            kkt_gap = 0.0;
            converged = true;
            break;
        }
        let gap = (g_max - g_min).max(0.0);
        if gap < config.tol {
            kkt_gap = gap;
            converged = true;
            break;
        }
        if iterations >= config.max_iter {
            kkt_gap = gap;
            break;
        }

        // Dense sub-problem on the most violating block. The global MVP
        // pair is always inside it, so a round either makes progress or
        // proves the pair numerically stuck.
        let block = select_block(&alpha, &grad, c, block_cap);
        let b = block.len();
        let mut qb = Matrix::zeros(b, b);
        for s in 0..b {
            let row_s = phi.row(block[s]);
            for t in s..b {
                let v = vecops::dot(row_s, phi.row(block[t]));
                qb[(s, t)] = v;
                qb[(t, s)] = v;
            }
        }
        let mut a_loc: Vec<f64> = block.iter().map(|&t| alpha[t]).collect();
        let mut g_loc: Vec<f64> = block.iter().map(|&t| grad[t]).collect();
        let mut updates = 0usize;
        for _ in 0..FEATURE_SMO_INNER * b {
            if iterations >= config.max_iter {
                break;
            }
            let (li, lg_min, lj, lg_max) = select_pair(&a_loc, &g_loc, c);
            if li == NONE || lj == NONE || lg_max - lg_min < config.tol {
                break;
            }
            let denom = qb[(li, li)] + qb[(lj, lj)] - 2.0 * qb[(li, lj)];
            let mut delta = if denom > 1e-12 {
                (g_loc[lj] - g_loc[li]) / denom
            } else {
                f64::INFINITY
            };
            delta = delta.min(c - a_loc[li]).min(a_loc[lj]);
            if delta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                break;
            }
            a_loc[li] += delta;
            a_loc[lj] -= delta;
            for t in 0..b {
                g_loc[t] += delta * (qb[(li, t)] - qb[(lj, t)]);
            }
            updates += 1;
            iterations += 1;
        }
        if updates == 0 {
            // The globally most violating pair is numerically stuck:
            // mirror SmoSolver and treat the iterate as converged.
            kkt_gap = gap;
            converged = true;
            break;
        }
        for (t, &idx) in block.iter().enumerate() {
            let delta = a_loc[t] - alpha[idx];
            if delta != 0.0 {
                vecops::axpy_mut(&mut w, delta, phi.row(idx));
            }
            alpha[idx] = a_loc[t];
        }
    }

    Ok(SmoSolution {
        alpha,
        gradient: grad,
        iterations,
        converged,
        kkt_gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::SmoSolver;

    fn sample(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |i, j| {
            ((i * 13 + j * 5) % 17) as f64 * 0.21 - 1.6 + (i as f64 * 0.37).sin()
        })
    }

    #[test]
    fn landmark_selection_is_deterministic_sorted_distinct() {
        let a = select_landmarks(100, 17, 42);
        let b = select_landmarks(100, 17, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 17);
        for pair in a.windows(2) {
            assert!(pair[0] < pair[1], "not strictly ascending: {a:?}");
        }
        assert!(a.iter().all(|&i| i < 100));
        let c = select_landmarks(100, 17, 43);
        assert_ne!(a, c, "seed should matter");
        // Rank clamps to n.
        assert_eq!(select_landmarks(5, 9, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_rank_nystrom_reconstructs_gram() {
        let data = sample(20, 4);
        let kernel = Kernel::Rbf { gamma: 0.7 };
        let map = KernelFeatureMap::nystrom(kernel, &data, 20, 7).unwrap();
        let approx = map.approx_gram().unwrap();
        let exact = GramMatrix::symmetric(kernel, &data);
        for i in 0..20 {
            for j in 0..20 {
                assert!(
                    (approx[(i, j)] - exact.matrix()[(i, j)]).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    approx[(i, j)],
                    exact.matrix()[(i, j)]
                );
            }
        }
    }

    #[test]
    fn nystrom_works_for_linear_kernel() {
        let data = sample(15, 3);
        let map = KernelFeatureMap::nystrom(Kernel::Linear, &data, 15, 3).unwrap();
        let approx = map.approx_gram().unwrap();
        let exact = GramMatrix::symmetric(Kernel::Linear, &data);
        for i in 0..15 {
            for j in 0..15 {
                assert!((approx[(i, j)] - exact.matrix()[(i, j)]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn rff_error_shrinks_with_more_features() {
        let data = sample(30, 5);
        let kernel = Kernel::Rbf { gamma: 0.5 };
        let exact = GramMatrix::symmetric(kernel, &data);
        let err = |features: usize| {
            let map = KernelFeatureMap::rff(kernel, &data, features, 11).unwrap();
            let approx = map.approx_gram().unwrap();
            let mut num = 0.0;
            let mut den = 0.0;
            for i in 0..30 {
                for j in 0..30 {
                    num += (approx[(i, j)] - exact.matrix()[(i, j)]).powi(2);
                    den += exact.matrix()[(i, j)].powi(2);
                }
            }
            (num / den).sqrt()
        };
        let coarse = err(32);
        let fine = err(2048);
        assert!(fine < 0.1, "D=2048 rel error {fine}");
        assert!(fine < coarse, "error should shrink: {coarse} -> {fine}");
    }

    #[test]
    fn rff_rejects_non_rbf_kernels() {
        let data = sample(6, 2);
        assert!(matches!(
            KernelFeatureMap::rff(Kernel::Linear, &data, 8, 1),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn embed_rows_matches_fitted_features() {
        let data = sample(12, 3);
        let kernel = Kernel::Rbf { gamma: 0.9 };
        for map in [
            KernelFeatureMap::nystrom(kernel, &data, 8, 5).unwrap(),
            KernelFeatureMap::rff(kernel, &data, 16, 5).unwrap(),
        ] {
            let re = map.embed_rows(&data).unwrap();
            assert_eq!(re.shape(), map.features().shape());
            for i in 0..12 {
                for j in 0..map.feature_count() {
                    assert!(
                        (re[(i, j)] - map.features()[(i, j)]).abs() < 1e-10,
                        "({i},{j})"
                    );
                }
            }
            let narrow = Matrix::zeros(2, 2);
            assert!(map.embed_rows(&narrow).is_err());
        }
    }

    #[test]
    fn auto_policy_resolution() {
        let rbf = Kernel::Rbf { gamma: 1.0 };
        assert_eq!(
            KernelApprox::Auto.resolve(1000, &rbf),
            KernelApprox::Exact,
            "paper-scale populations stay exact"
        );
        assert_eq!(
            KernelApprox::Auto.resolve(KernelApprox::AUTO_EXACT_LIMIT, &rbf),
            KernelApprox::Exact
        );
        assert_eq!(
            KernelApprox::Auto.resolve(KernelApprox::AUTO_EXACT_LIMIT + 1, &rbf),
            KernelApprox::Rff {
                features: KernelApprox::AUTO_RFF_FEATURES
            }
        );
        assert_eq!(
            KernelApprox::Auto.resolve(10_000, &Kernel::Linear),
            KernelApprox::Nystrom {
                rank: KernelApprox::AUTO_NYSTROM_RANK
            }
        );
        // Concrete variants pass through.
        assert_eq!(
            KernelApprox::Exact.resolve(1_000_000, &rbf),
            KernelApprox::Exact
        );
        assert_eq!(
            KernelApprox::Nystrom { rank: 64 }.resolve(10, &rbf),
            KernelApprox::Nystrom { rank: 64 }
        );
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(KernelApprox::Nystrom { rank: 0 }.validate().is_err());
        assert!(KernelApprox::Rff { features: 0 }.validate().is_err());
        assert!(KernelApprox::Auto.validate().is_ok());
        assert!(KernelApprox::Exact.validate().is_ok());
    }

    #[test]
    fn low_rank_q_matches_dense_approximate_gram() {
        let data = sample(18, 3);
        let map = KernelFeatureMap::nystrom(Kernel::Rbf { gamma: 0.6 }, &data, 10, 9).unwrap();
        let dense = map.approx_gram().unwrap();
        let mut q = LowRankQ::new(&map, 3);
        // approx_gram goes through the blocked GEMM while the row source
        // uses per-row dots: identical values up to O(ε) rounding.
        for i in [0usize, 7, 17, 3, 7] {
            assert!((WorkingSetQ::diag(&mut q, i) - dense[(i, i)]).abs() < 1e-12);
        }
        let (qi, qj) = q.pair(2, 5);
        for t in 0..18 {
            assert!((qi[t] - dense[(2, t)]).abs() < 1e-12);
            assert!((qj[t] - dense[(5, t)]).abs() < 1e-12);
        }
        let alpha: Vec<f64> = (0..18).map(|i| 1.0 / (i + 2) as f64).collect();
        let got = q.matvec(&alpha).unwrap();
        let want = dense.matvec(&alpha).unwrap();
        for (g, e) in got.iter().zip(&want) {
            assert!((g - e).abs() < 1e-10);
        }
        assert!(q.matvec(&[1.0]).is_err());
    }

    #[test]
    fn smo_over_low_rank_q_matches_dense_solve() {
        let data = sample(30, 3);
        let map = KernelFeatureMap::nystrom(Kernel::Rbf { gamma: 0.8 }, &data, 12, 13).unwrap();
        let config = SmoConfig {
            upper: 1.0 / (0.2 * 30.0),
            tol: 1e-6,
            max_iter: 50_000,
        };
        let solver = SmoSolver::new(config);
        let dense = map.approx_gram().unwrap();
        let want = solver.solve(&dense).unwrap();
        let mut q = LowRankQ::new(&map, 8);
        let got = solver.solve_with(&mut q).unwrap();
        assert!(got.converged);
        // The dense Gram is GEMM-form, the row source is per-row dots, so
        // the trajectories differ by O(ε) compounding — same tolerance as
        // the KernelRowCache-vs-dense test.
        for (a, b) in got.alpha.iter().zip(&want.alpha) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn feature_smo_matches_dense_smo_objective() {
        let data = sample(60, 4);
        let map = KernelFeatureMap::nystrom(Kernel::Rbf { gamma: 0.5 }, &data, 20, 3).unwrap();
        let config = SmoConfig {
            upper: 1.0 / (0.1 * 60.0),
            tol: 1e-7,
            max_iter: 100_000,
        };
        let dense = map.approx_gram().unwrap();
        let want = SmoSolver::new(config).solve(&dense).unwrap();
        let got = solve_feature_smo(map.features(), &config).unwrap();
        assert!(got.converged, "gap {}", got.kkt_gap);
        let mass: f64 = got.alpha.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        assert!(got
            .alpha
            .iter()
            .all(|a| *a >= -1e-12 && *a <= config.upper + 1e-12));
        let objective = |alpha: &[f64]| {
            let qa = dense.matvec(alpha).unwrap();
            0.5 * alpha.iter().zip(&qa).map(|(a, b)| a * b).sum::<f64>()
        };
        let (fo, do_) = (objective(&got.alpha), objective(&want.alpha));
        assert!(
            fo <= do_ + 1e-6 * do_.abs().max(1.0),
            "feature-smo objective {fo} worse than dense {do_}"
        );
        // The reported gradient is the exact Qα of the final iterate.
        let qa = dense.matvec(&got.alpha).unwrap();
        for (g, e) in got.gradient.iter().zip(&qa) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn feature_smo_rejects_bad_upper() {
        let phi = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let bad = SmoConfig {
            upper: -1.0,
            ..Default::default()
        };
        assert!(solve_feature_smo(&phi, &bad).is_err());
        let infeasible = SmoConfig {
            upper: 0.2,
            ..Default::default()
        };
        assert!(solve_feature_smo(&phi, &infeasible).is_err());
    }

    #[test]
    fn feature_smo_bit_identical_across_thread_counts() {
        let data = sample(80, 4);
        let map = KernelFeatureMap::rff(Kernel::Rbf { gamma: 0.4 }, &data, 64, 21).unwrap();
        let config = SmoConfig {
            upper: 1.0 / (0.1 * 80.0),
            tol: 1e-7,
            max_iter: 100_000,
        };
        let one = sidefp_parallel::with_threads(1, || {
            solve_feature_smo(map.features(), &config).unwrap()
        });
        let eight = sidefp_parallel::with_threads(8, || {
            solve_feature_smo(map.features(), &config).unwrap()
        });
        assert_eq!(one.iterations, eight.iterations);
        for (a, b) in one.alpha.iter().zip(&eight.alpha) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn feature_map_construction_bit_identical_across_thread_counts() {
        let data = sample(50, 5);
        let kernel = Kernel::Rbf { gamma: 0.6 };
        type MapBuilder = Box<dyn Fn(&Matrix) -> KernelFeatureMap>;
        let builders: [MapBuilder; 2] = [
            Box::new(move |d| KernelFeatureMap::nystrom(kernel, d, 16, 31).unwrap()),
            Box::new(move |d| KernelFeatureMap::rff(kernel, d, 48, 31).unwrap()),
        ];
        for build in builders {
            let one = sidefp_parallel::with_threads(1, || build(&data));
            let eight = sidefp_parallel::with_threads(8, || build(&data));
            let (a, b) = (one.features().as_slice(), eight.features().as_slice());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
