//! Binned evaluation of the adaptive Epanechnikov KDE.
//!
//! The Epanechnikov kernel has compact support: observation `i` contributes
//! to the density at `x` only when `‖z(x) − z_i‖ < h·λ_i`. A dense
//! evaluation still sums all `m` terms per query; [`BinnedKde`] instead
//! indexes the observations by a coarse grid so each query touches only the
//! observations whose support can reach it — `O(local neighborhood)` per
//! query instead of `O(m)`.
//!
//! Because the adaptive radii `h·λ_i` vary per observation, a single grid
//! resolution cannot bound the reach of every kernel. Observations are
//! therefore split into dyadic **bands** by radius; band `b` holds radii in
//! `(R_max/2^{b+1}, R_max/2^b]` (the last band absorbs the tail) and is
//! gridded at cell size `R_max/2^b`, so any contributing observation lies
//! within ±1 cell of the query in every gridded dimension. The grid spans
//! the first `min(d, 3)` coordinates; higher dimensions are not pruned
//! (the kernel term itself exits early past the support boundary).
//!
//! Every sum iterates bands, neighbor cells and members in a fixed order,
//! so the evaluator is bit-deterministic at any thread count. The summation
//! grouping differs from the dense path's blocked reduction, so binned and
//! dense densities agree to roundoff (relative `O(ε)`), not bit-for-bit.

use crate::kde::AdaptiveKde;
use crate::StatsError;
use sidefp_linalg::Matrix;

/// Number of dyadic radius bands. Four bands cover a 16× spread of local
/// bandwidth factors; rarer, even-wider kernels land in the last band and
/// merely make its cells slightly conservative.
const BANDS: usize = 4;

/// Grid dimensionality cap: cells are formed over the first
/// `min(d, GRID_DIMS_MAX)` z-space coordinates.
const GRID_DIMS_MAX: usize = 3;

/// Bits per packed grid coordinate (3 × 21 = 63 bits in a `u64`).
const COORD_BITS: u32 = 21;

/// Coordinate offset making packed coordinates non-negative; coordinates
/// clamp to `[-COORD_OFFSET, COORD_OFFSET - 1]`. Clamping is monotone and
/// 1-Lipschitz, so truly adjacent cells stay adjacent after clamping — far
/// ends of the clamp range can only *add* candidate members (whose kernel
/// terms evaluate to zero), never lose one.
const COORD_OFFSET: i64 = 1 << 20;

/// One radius band: a uniform grid at `cell` resolution stored as a sorted
/// cell table with CSR member lists.
#[derive(Debug, Clone)]
struct Band {
    /// Cell edge length (equals the band's maximum kernel radius).
    cell: f64,
    /// Sorted, distinct packed cell keys.
    keys: Vec<u64>,
    /// CSR offsets into `members`, one more entry than `keys`.
    starts: Vec<u32>,
    /// Observation indices, ascending within each cell.
    members: Vec<u32>,
}

/// Grid-accelerated evaluator over a fitted [`AdaptiveKde`].
///
/// Construction is `O(m log m)`; each density query costs a constant number
/// of cell lookups plus one kernel term per nearby observation. Values
/// match [`AdaptiveKde::density`] to floating-point roundoff.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = Matrix::from_rows(&[
///     &[0.0, 0.0], &[0.2, 0.1], &[-0.1, 0.2], &[0.1, -0.2],
///     &[0.0, 0.3], &[-0.2, -0.1], &[0.3, 0.0], &[-0.3, 0.1],
/// ])?;
/// let kde = AdaptiveKde::fit(&data, &KdeConfig::default())?;
/// let binned = kde.binned();
/// let dense = kde.density(&[0.05, 0.05])?;
/// let fast = binned.density(&[0.05, 0.05])?;
/// assert!((dense - fast).abs() < 1e-12 * dense.max(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinnedKde<'a> {
    kde: &'a AdaptiveKde,
    /// Non-empty bands, in increasing band index (decreasing cell size).
    bands: Vec<Band>,
    /// Number of gridded leading dimensions (`min(d, 3)`).
    grid_dims: usize,
}

/// Grid coordinate of `v` at resolution `cell`, clamped to the packed
/// range. The `as i64` cast saturates, which composes with the clamp.
#[inline]
fn cell_coord(v: f64, cell: f64) -> i64 {
    let c = (v / cell).floor();
    (c as i64).clamp(-COORD_OFFSET, COORD_OFFSET - 1)
}

/// Packs the leading `grid_dims` coordinates of `row` into one key.
#[inline]
fn cell_key(row: &[f64], grid_dims: usize, cell: f64) -> u64 {
    let mut key = 0u64;
    for (j, &v) in row.iter().take(grid_dims).enumerate() {
        let c = (cell_coord(v, cell) + COORD_OFFSET) as u64;
        key |= c << (COORD_BITS * j as u32);
    }
    key
}

impl AdaptiveKde {
    /// Builds the grid-accelerated evaluator for this estimator.
    ///
    /// The evaluator borrows the estimator; it adds `O(m)` index memory and
    /// leaves the estimator untouched.
    pub fn binned(&self) -> BinnedKde<'_> {
        BinnedKde::build(self)
    }
}

impl<'a> BinnedKde<'a> {
    fn build(kde: &'a AdaptiveKde) -> Self {
        let m = kde.len();
        let grid_dims = kde.dim().min(GRID_DIMS_MAX);
        let r_max = (0..m).map(|i| kde.kernel_radius(i)).fold(0.0_f64, f64::max);

        // Partition observations into dyadic radius bands.
        let mut per_band: Vec<Vec<u32>> = vec![Vec::new(); BANDS];
        for i in 0..m {
            let r = kde.kernel_radius(i);
            let b = if r >= r_max {
                0
            } else {
                ((r_max / r).log2().floor() as usize).min(BANDS - 1)
            };
            per_band[b].push(i as u32);
        }

        let bands = per_band
            .into_iter()
            .enumerate()
            .filter(|(_, idx)| !idx.is_empty())
            .map(|(b, idx)| {
                let cell = r_max / (1u64 << b) as f64;
                let mut keyed: Vec<(u64, u32)> = idx
                    .iter()
                    .map(|&i| (cell_key(kde.z_row(i as usize), grid_dims, cell), i))
                    .collect();
                keyed.sort_unstable();
                let mut keys = Vec::new();
                let mut starts = Vec::new();
                let mut members = Vec::with_capacity(keyed.len());
                for (key, i) in keyed {
                    if keys.last() != Some(&key) {
                        keys.push(key);
                        starts.push(members.len() as u32);
                    }
                    members.push(i);
                }
                starts.push(members.len() as u32);
                Band {
                    cell,
                    keys,
                    starts,
                    members,
                }
            })
            .collect();

        BinnedKde {
            kde,
            bands,
            grid_dims,
        }
    }

    /// Sum of adaptive kernel terms reachable from `zx`, visiting bands,
    /// neighbor cells and members in a fixed order.
    fn local_term_sum(&self, zx: &[f64]) -> f64 {
        let mut sum = 0.0;
        for band in &self.bands {
            let mut base = [0i64; GRID_DIMS_MAX];
            for j in 0..self.grid_dims {
                base[j] = cell_coord(zx[j], band.cell);
            }
            let combos = 3usize.pow(self.grid_dims as u32);
            'combo: for combo in 0..combos {
                let mut key = 0u64;
                let mut rest = combo;
                for (j, b) in base.iter().take(self.grid_dims).enumerate() {
                    let c = b + (rest % 3) as i64 - 1;
                    rest /= 3;
                    if !(-COORD_OFFSET..COORD_OFFSET).contains(&c) {
                        // Out-of-range cells hold no members by construction.
                        continue 'combo;
                    }
                    key |= ((c + COORD_OFFSET) as u64) << (COORD_BITS * j as u32);
                }
                if let Ok(pos) = band.keys.binary_search(&key) {
                    let (lo, hi) = (band.starts[pos] as usize, band.starts[pos + 1] as usize);
                    for &i in &band.members[lo..hi] {
                        sum += self.kde.adaptive_term(i as usize, zx);
                    }
                }
            }
        }
        sum
    }

    /// Adaptive density `f_α(x)` in original units, matching
    /// [`AdaptiveKde::density`] to roundoff.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on length mismatch.
    pub fn density(&self, x: &[f64]) -> Result<f64, StatsError> {
        let zx = self.kde.transform_query(x)?;
        let m = self.kde.len() as f64;
        Ok(self.local_term_sum(&zx) / m / self.kde.jacobian())
    }

    /// Adaptive density at every row of `x`, scored in parallel; values are
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `x`'s column count
    /// differs from the fitted dimension.
    pub fn density_rows(&self, x: &Matrix) -> Result<Vec<f64>, StatsError> {
        if x.ncols() != self.kde.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.kde.dim(),
                got: x.ncols(),
            });
        }
        Ok(sidefp_parallel::map_indexed(x.nrows(), |i| {
            self.density(x.row(i))
                .expect("row width checked against fitted dimension")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kde::KdeConfig;
    use crate::MultivariateNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob(n: usize, d: usize, seed: u64) -> Matrix {
        let mvn = MultivariateNormal::independent(vec![0.0; d], &vec![1.0; d]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_matrix(&mut rng, n)
    }

    /// Shared check: binned densities track dense densities to roundoff at
    /// every query row (including queries off the data manifold).
    fn assert_matches_dense(data: &Matrix, queries: &Matrix, cfg: &KdeConfig) {
        let kde = AdaptiveKde::fit(data, cfg).unwrap();
        let binned = kde.binned();
        let dense = kde.density_rows(queries).unwrap();
        let fast = binned.density_rows(queries).unwrap();
        for (i, (a, b)) in dense.iter().zip(&fast).enumerate() {
            let tol = 1e-9 * a.abs().max(1e-300);
            assert!((a - b).abs() <= tol, "row {i}: dense {a} vs binned {b}");
        }
    }

    #[test]
    fn matches_dense_in_low_dimensions() {
        for d in [1, 2, 3] {
            let data = blob(300, d, 20 + d as u64);
            let queries = blob(80, d, 40 + d as u64);
            assert_matches_dense(&data, &queries, &KdeConfig::default());
        }
    }

    #[test]
    fn matches_dense_beyond_gridded_dimensions() {
        // d = 5 > GRID_DIMS_MAX: the suffix dimensions are unpruned but the
        // sum must still be complete.
        let data = blob(250, 5, 31);
        let queries = blob(60, 5, 32);
        assert_matches_dense(&data, &queries, &KdeConfig::default());
    }

    #[test]
    fn matches_dense_with_strong_adaptivity() {
        // α = 1 maximizes the λ spread, pushing observations into multiple
        // radius bands.
        let cfg = KdeConfig {
            alpha: 1.0,
            ..Default::default()
        };
        let data = blob(400, 2, 33);
        let queries = blob(100, 2, 34);
        assert_matches_dense(&data, &queries, &cfg);
    }

    #[test]
    fn far_queries_score_zero() {
        let kde = AdaptiveKde::fit(&blob(100, 2, 35), &KdeConfig::default()).unwrap();
        let binned = kde.binned();
        assert_eq!(binned.density(&[1e6, -1e6]).unwrap(), 0.0);
    }

    #[test]
    fn dimension_checked() {
        let kde = AdaptiveKde::fit(&blob(50, 2, 36), &KdeConfig::default()).unwrap();
        let binned = kde.binned();
        assert!(binned.density(&[1.0]).is_err());
        assert!(binned.density_rows(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn rows_bit_identical_across_thread_counts() {
        let data = blob(200, 3, 37);
        let queries = blob(64, 3, 38);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let binned = kde.binned();
        let reference = sidefp_parallel::with_threads(1, || binned.density_rows(&queries).unwrap());
        for threads in [2, 8] {
            let got =
                sidefp_parallel::with_threads(threads, || binned.density_rows(&queries).unwrap());
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn rows_match_pointwise() {
        let data = blob(120, 2, 39);
        let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
        let binned = kde.binned();
        let batch = binned.density_rows(&data).unwrap();
        for (i, row) in data.rows_iter().enumerate() {
            assert_eq!(batch[i], binned.density(row).unwrap(), "row {i}");
        }
    }
}
