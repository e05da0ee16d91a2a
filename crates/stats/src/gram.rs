//! Shared Gram-matrix engine for the kernel methods.
//!
//! KMM, the one-class SVM and the MMD permutation test all start from the
//! same object: a pairwise kernel matrix over data rows. [`GramMatrix`]
//! computes it once and exposes the summation helpers those consumers
//! need, so none of them carries its own pairwise-kernel loop.
//!
//! Construction runs through the packed-panel GEMM with **fused
//! epilogues** ([`sidefp_linalg::gemm`]): the micro-kernel forms the
//! inner products `X·Yᵀ`, and while each output stripe is still in cache
//! the epilogue applies the identity `‖x − y‖² = ‖x‖² + ‖y‖² − 2⟨x, y⟩`
//! and the RBF map (`exp`) in the same pass — there
//! is no second full-matrix sweep over a materialized product. Symmetric
//! Grams use the `A·Aᵀ` entry point, which only forms the upper triangle
//! (the dot-product count is halved) and mirrors the lower one with plain
//! copies afterwards. Squared distances are clamped at zero: the identity
//! can go negative by a rounding epsilon where the direct difference
//! cannot, and row norms are computed with the same ascending fold as the
//! micro-kernel's own diagonal dot, so `‖x − x‖²` cancels to exactly zero
//! (RBF Gram diagonals are exactly 1).
//!
//! Parallel layout and determinism are inherited from the GEMM driver:
//! row stripes form a precomputed tile queue claimed via an atomic
//! counter, and each stripe is written only to its own pre-split output
//! slot, so the result is bit-identical at any thread count.

use sidefp_linalg::gemm::{self, Epilogue};
use sidefp_linalg::{vecops, Matrix};

use crate::qp::WorkingSetQ;
use crate::{Kernel, StatsError};

/// A precomputed symmetric kernel matrix `K[i][j] = k(x_i, x_j)` over the
/// rows of one dataset, tagged with the kernel that produced it.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::{GramMatrix, Kernel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 2.0]])?;
/// let gram = GramMatrix::symmetric(Kernel::Rbf { gamma: 0.5 }, &data);
/// assert_eq!(gram.len(), 3);
/// assert_eq!(gram.matrix()[(0, 0)], 1.0);
/// assert_eq!(gram.matrix()[(0, 1)], gram.matrix()[(1, 0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GramMatrix {
    kernel: Kernel,
    values: Matrix,
}

impl GramMatrix {
    /// Computes the symmetric Gram matrix of `data`'s rows in GEMM form.
    pub fn symmetric(kernel: Kernel, data: &Matrix) -> GramMatrix {
        let n = data.nrows();
        if n == 0 {
            return GramMatrix {
                kernel,
                values: Matrix::zeros(0, 0),
            };
        }
        let mut values = Matrix::zeros(n, n);
        let norms = row_norms(data);
        gemm::syrk_fused(data, &epilogue(kernel, &norms, &norms), &mut values);
        mirror_lower_triangle(&mut values);
        GramMatrix { kernel, values }
    }

    /// Builds an RBF Gram matrix from an already-computed matrix of
    /// pairwise squared distances (see [`pairwise_squared_distances`]).
    ///
    /// `exp(-γ·d²)` is applied element-wise, so the result is
    /// value-identical to [`GramMatrix::symmetric`] on the data that
    /// produced `d2` — both run the same GEMM-form distance expression.
    /// This lets the MMD test derive the median-heuristic bandwidth and
    /// the Gram from one distance pass instead of two.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `d2` is not square.
    pub fn from_squared_distances(kernel: Kernel, d2: Matrix) -> Result<GramMatrix, StatsError> {
        let Kernel::Rbf { gamma } = kernel;
        if d2.nrows() != d2.ncols() {
            return Err(StatsError::DimensionMismatch {
                expected: d2.nrows(),
                got: d2.ncols(),
            });
        }
        let mut values = d2;
        let ncols = values.ncols();
        sidefp_parallel::for_each_row_mut(values.as_mut_slice(), ncols, |_, row| {
            for v in row {
                *v = vecops::exp(-gamma * *v);
            }
        });
        Ok(GramMatrix { kernel, values })
    }

    /// Computes the rectangular cross-Gram `K[i][j] = k(a_i, b_j)` in GEMM
    /// form with parallel row chunks.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the column counts of
    /// `a` and `b` differ.
    pub fn cross(kernel: Kernel, a: &Matrix, b: &Matrix) -> Result<Matrix, StatsError> {
        if a.ncols() != b.ncols() {
            return Err(StatsError::DimensionMismatch {
                expected: a.ncols(),
                got: b.ncols(),
            });
        }
        let (na, nb) = (a.nrows(), b.nrows());
        if na == 0 || nb == 0 {
            return Ok(Matrix::zeros(na, nb));
        }
        let mut values = Matrix::zeros(na, nb);
        let (a_norms, b_norms) = (row_norms(a), row_norms(b));
        gemm::gemm_nt_fused(a, b, &epilogue(kernel, &a_norms, &b_norms), &mut values);
        Ok(values)
    }

    /// The kernel this matrix was computed with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The symmetric kernel matrix itself.
    pub fn matrix(&self) -> &Matrix {
        &self.values
    }

    /// Consumes the wrapper, returning the kernel matrix.
    pub fn into_matrix(self) -> Matrix {
        self.values
    }

    /// Number of data rows (the matrix is `len × len`).
    pub fn len(&self) -> usize {
        self.values.nrows()
    }

    /// `true` for a 0×0 Gram matrix.
    pub fn is_empty(&self) -> bool {
        self.values.nrows() == 0
    }

    /// Sum of `K[i][j]` over `i ∈ rows`, `j ∈ cols` — the building block
    /// of every MMD-style statistic.
    pub fn block_sum(&self, rows: &[usize], cols: &[usize]) -> f64 {
        sidefp_parallel::reduce_sum(rows.len(), |r| {
            let row = self.values.row(rows[r]);
            cols.iter().map(|&c| row[c]).sum()
        })
    }

    /// Sum of every entry of the matrix.
    pub fn total_sum(&self) -> f64 {
        let n = self.len();
        sidefp_parallel::reduce_sum(n, |i| self.values.row(i).iter().sum())
    }

    /// The quadratic form `wᵀ K w` (the weighted-MMD training term).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.len()`.
    pub fn weighted_quadratic(&self, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.len(), "weight vector length mismatch");
        sidefp_parallel::reduce_sum(self.len(), |i| {
            let row = self.values.row(i);
            w[i] * row.iter().zip(w).map(|(k, wj)| k * wj).sum::<f64>()
        })
    }
}

/// The full symmetric matrix of pairwise squared distances between
/// `data`'s rows, computed by the fused `‖x‖² + ‖y‖² − 2·X·Xᵀ` epilogue
/// on the packed-panel GEMM (clamped at zero; the diagonal is exactly
/// zero).
pub fn pairwise_squared_distances(data: &Matrix) -> Matrix {
    let n = data.nrows();
    if n == 0 {
        return Matrix::zeros(0, 0);
    }
    let norms = row_norms(data);
    let mut d2 = Matrix::zeros(n, n);
    gemm::syrk_fused(
        data,
        &Epilogue::SquaredDistance {
            a_norms: &norms,
            b_norms: &norms,
        },
        &mut d2,
    );
    mirror_lower_triangle(&mut d2);
    d2
}

/// Target entry count of one part of [`packed_squared_distances`]'s tile
/// queue (128 KiB of output): about 70 parts at the boundary fits'
/// `n = 1,500`, so the triangle's uneven rows balance across workers.
const PACKED_PART: usize = 1 << 14;

/// The strict upper triangle of [`pairwise_squared_distances`], packed
/// row by row (row `i` holds its `n − 1 − i` entries `j > i`), without
/// forming the `n × n` matrix — the median heuristic's input.
///
/// Each entry is the micro-kernel's ascending-fold dot product (a zero
/// start plus one `a·b` per column, in column order, formed over the
/// transposed data so a row's entries vectorize) mapped by the same
/// [`Epilogue::SquaredDistance`] with the same row norms, so it equals the
/// matrix entry bit for bit. Blocks of whole rows with about
/// [`PACKED_PART`] entries each form a tile queue across the pool; every
/// entry depends only on its own pair, so the result is identical at any
/// thread count.
pub(crate) fn packed_squared_distances(data: &Matrix) -> Vec<f64> {
    let n = data.nrows();
    let mut out = vec![0.0; n * n.saturating_sub(1) / 2];
    if out.is_empty() {
        return out;
    }
    let norms = row_norms(data);
    let epi = Epilogue::SquaredDistance {
        a_norms: &norms,
        b_norms: &norms,
    };
    let columns = data.transpose();
    // Row i starts at i·n − i(i+1)/2; a part starts at a row start.
    let offset = |i: usize| i * n - i * (i + 1) / 2;
    let mut first_rows = vec![0];
    let mut cuts = Vec::new();
    for i in 1..n - 1 {
        if offset(i) - cuts.last().copied().unwrap_or(0) >= PACKED_PART {
            first_rows.push(i);
            cuts.push(offset(i));
        }
    }
    sidefp_parallel::for_each_split_mut(&mut out, &cuts, |part, mut rest| {
        let mut i = first_rows[part];
        while !rest.is_empty() {
            let (seg, tail) = rest.split_at_mut(n - 1 - i);
            // seg starts at zero; one ascending pass over the columns
            // forms every entry's fold, vectorized across j.
            for (&a, col) in data.row(i).iter().zip(columns.rows_iter()) {
                for (v, &b) in seg.iter_mut().zip(&col[i + 1..]) {
                    *v += a * b;
                }
            }
            epi.apply_row(i, i + 1, seg);
            rest = tail;
            i += 1;
        }
    });
    out
}

/// Per-row squared norms with the micro-kernel's own ascending fold, so
/// the symmetric diagonal cancels bit-exactly (see
/// [`gemm::self_dot_fold`]).
fn row_norms(data: &Matrix) -> Vec<f64> {
    sidefp_parallel::map_indexed(data.nrows(), |i| gemm::self_dot_fold(data.row(i)))
}

/// The fused GEMM epilogue that turns dot products into `kernel` values.
fn epilogue<'a>(kernel: Kernel, a_norms: &'a [f64], b_norms: &'a [f64]) -> Epilogue<'a> {
    let Kernel::Rbf { gamma } = kernel;
    Epilogue::Rbf {
        gamma,
        a_norms,
        b_norms,
    }
}

/// Rows of the symmetric kernel matrix of one dataset, each computed the
/// first time it is asked for and kept from then on.
///
/// This is the SMO solver's row source (see [`WorkingSetQ`]): a ν-OCSVM
/// solve from a sparse start touches only the rows of its support vectors
/// and of the coordinates it ever selects — about 170 of 1,500 on the
/// paper's B2/B5 fits — so the full `n × n` Gram is never formed. Every
/// entry equals the matching [`GramMatrix::symmetric`] entry bit for bit:
/// a row requested alone forms its dot products with the micro-kernel's
/// ascending fold and runs the same epilogue, and a larger block goes
/// through [`GramMatrix::cross`].
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::qp::WorkingSetQ;
/// use sidefp_stats::{GramMatrix, Kernel, KernelRows};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]])?;
/// let kernel = Kernel::Rbf { gamma: 1.0 };
/// let mut rows = KernelRows::new(kernel, &data);
/// rows.load(&[1])?;
/// assert_eq!(rows.held(), 1);
/// assert_eq!(rows.row(1), GramMatrix::symmetric(kernel, &data).matrix().row(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KernelRows<'a> {
    kernel: Kernel,
    data: &'a Matrix,
    norms: Vec<f64>,
    /// Row `i` of the kernel matrix, or empty while it is not computed.
    rows: Vec<Vec<f64>>,
}

impl<'a> KernelRows<'a> {
    /// An empty store over `data`'s rows; nothing is computed yet.
    pub fn new(kernel: Kernel, data: &'a Matrix) -> Self {
        KernelRows {
            kernel,
            data,
            norms: row_norms(data),
            rows: vec![Vec::new(); data.nrows()],
        }
    }

    /// Number of rows computed so far.
    pub fn held(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    /// Computes row `i`: ascending-fold dot products, then the epilogue
    /// the GEMM applies to the same raw products.
    fn compute_row(&self, i: usize) -> Vec<f64> {
        let xi = self.data.row(i);
        let mut row: Vec<f64> = self
            .data
            .rows_iter()
            .map(|xj| {
                let mut p = 0.0;
                for (a, b) in xi.iter().zip(xj) {
                    p += a * b;
                }
                p
            })
            .collect();
        epilogue(self.kernel, &self.norms, &self.norms).apply_row(i, 0, &mut row);
        row
    }
}

impl WorkingSetQ for KernelRows<'_> {
    fn len(&self) -> usize {
        self.data.nrows()
    }

    fn load(&mut self, idx: &[usize]) -> Result<(), StatsError> {
        let mut missing: Vec<usize> = idx
            .iter()
            .copied()
            .filter(|&i| self.rows[i].is_empty())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.len() <= 2 {
            // A working pair: two sequential rows cost less than packing
            // the whole dataset for one GEMM.
            for i in missing {
                self.rows[i] = self.compute_row(i);
            }
            return Ok(());
        }
        // Blocks of at most BLOCK_ROWS rows bound the transient copy when a
        // dense warm start asks for every row at once.
        const BLOCK_ROWS: usize = 256;
        for chunk in missing.chunks(BLOCK_ROWS) {
            let block = GramMatrix::cross(self.kernel, &self.data.select_rows(chunk), self.data)?;
            for (r, &i) in chunk.iter().enumerate() {
                self.rows[i] = block.row(r).to_vec();
            }
        }
        Ok(())
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }
}

/// Copies the strict upper triangle onto the lower one; cheap copies, no
/// kernel evaluations.
fn mirror_lower_triangle(values: &mut Matrix) {
    let n = values.nrows();
    for i in 1..n {
        for j in 0..i {
            values[(i, j)] = values[(j, i)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidefp_parallel::with_threads;

    fn sample(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |i, j| ((i * 13 + j * 5) % 17) as f64 * 0.17 - 1.0)
    }

    /// |got − want| relative to max(|want|, 1).
    fn rel_err(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs().max(1.0)
    }

    #[test]
    fn symmetric_matches_direct_evaluation() {
        let data = sample(23, 4);
        let kernel = Kernel::Rbf { gamma: 0.7 };
        let gram = GramMatrix::symmetric(kernel, &data);
        for i in 0..23 {
            for j in 0..23 {
                // GEMM-form distances differ from the per-pair loop by
                // O(ε) rounding; the contract is ≤1e-9 relative error.
                let expected = kernel.eval(data.row(i), data.row(j));
                let got = gram.matrix()[(i, j)];
                assert!(
                    rel_err(got, expected) < 1e-9,
                    "({i}, {j}): {got} vs {expected}"
                );
            }
        }
        // The diagonal cancels exactly: RBF self-similarity is exactly 1.
        for i in 0..23 {
            assert_eq!(gram.matrix()[(i, i)], 1.0, "diagonal {i}");
        }
        assert_eq!(gram.kernel(), kernel);
        assert_eq!(gram.len(), 23);
        assert!(!gram.is_empty());
    }

    #[test]
    fn symmetric_is_exactly_symmetric() {
        let data = sample(19, 5);
        let gram = GramMatrix::symmetric(Kernel::Rbf { gamma: 1.1 }, &data);
        for i in 0..19 {
            for j in 0..19 {
                assert_eq!(gram.matrix()[(i, j)], gram.matrix()[(j, i)]);
            }
        }
    }

    #[test]
    fn symmetric_identical_at_any_thread_count() {
        let data = sample(41, 3);
        let kernel = Kernel::Rbf { gamma: 1.3 };
        let reference = with_threads(1, || GramMatrix::symmetric(kernel, &data));
        for threads in [2, 3, 8] {
            let got = with_threads(threads, || GramMatrix::symmetric(kernel, &data));
            assert_eq!(
                got.matrix().as_slice(),
                reference.matrix().as_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cross_matches_direct_evaluation() {
        let a = sample(7, 3);
        let b = sample(11, 3);
        let kernel = Kernel::Rbf { gamma: 0.9 };
        let cross = GramMatrix::cross(kernel, &a, &b).unwrap();
        assert_eq!(cross.shape(), (7, 11));
        for i in 0..7 {
            for j in 0..11 {
                let expected = kernel.eval(a.row(i), b.row(j));
                assert!(rel_err(cross[(i, j)], expected) < 1e-9, "({i}, {j})");
            }
        }
    }

    #[test]
    fn cross_rejects_column_mismatch() {
        let a = sample(4, 3);
        let b = sample(4, 2);
        assert!(matches!(
            GramMatrix::cross(Kernel::default(), &a, &b),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn pairwise_squared_distances_match_naive_loop() {
        let data = sample(17, 6);
        let d2 = pairwise_squared_distances(&data);
        for i in 0..17 {
            for j in 0..17 {
                let naive: f64 = data
                    .row(i)
                    .iter()
                    .zip(data.row(j))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                assert!(
                    rel_err(d2[(i, j)], naive) < 1e-9,
                    "({i}, {j}): {} vs {naive}",
                    d2[(i, j)]
                );
                assert!(d2[(i, j)] >= 0.0);
            }
        }
        for i in 0..17 {
            assert_eq!(d2[(i, i)], 0.0, "diagonal {i}");
        }
    }

    #[test]
    fn from_squared_distances_bit_identical_to_symmetric() {
        let data = sample(21, 4);
        let kernel = Kernel::Rbf { gamma: 0.9 };
        let direct = GramMatrix::symmetric(kernel, &data);
        let d2 = pairwise_squared_distances(&data);
        let shared = GramMatrix::from_squared_distances(kernel, d2).unwrap();
        assert_eq!(shared.matrix().as_slice(), direct.matrix().as_slice());
        assert_eq!(shared.kernel(), kernel);
    }

    #[test]
    fn from_squared_distances_rejects_bad_inputs() {
        assert!(matches!(
            GramMatrix::from_squared_distances(Kernel::Rbf { gamma: 1.0 }, Matrix::zeros(3, 4)),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn block_and_total_sums_agree() {
        let data = sample(15, 2);
        let gram = GramMatrix::symmetric(Kernel::Rbf { gamma: 0.4 }, &data);
        let all: Vec<usize> = (0..15).collect();
        let brute: f64 = (0..15)
            .flat_map(|i| (0..15).map(move |j| (i, j)))
            .map(|(i, j)| gram.matrix()[(i, j)])
            .sum();
        assert!((gram.block_sum(&all, &all) - brute).abs() < 1e-12);
        assert!((gram.total_sum() - brute).abs() < 1e-12);
        let left = &all[..7];
        let right = &all[7..];
        let brute_lr: f64 = left
            .iter()
            .flat_map(|&i| right.iter().map(move |&j| (i, j)))
            .map(|(i, j)| gram.matrix()[(i, j)])
            .sum();
        assert!((gram.block_sum(left, right) - brute_lr).abs() < 1e-12);
    }

    #[test]
    fn weighted_quadratic_matches_brute_force() {
        let data = sample(9, 2);
        let gram = GramMatrix::symmetric(Kernel::Rbf { gamma: 0.8 }, &data);
        let w: Vec<f64> = (0..9).map(|i| 0.3 + 0.1 * i as f64).collect();
        let brute: f64 = (0..9)
            .flat_map(|i| (0..9).map(move |j| (i, j)))
            .map(|(i, j)| w[i] * w[j] * gram.matrix()[(i, j)])
            .sum();
        assert!((gram.weighted_quadratic(&w) - brute).abs() < 1e-12);
    }

    #[test]
    fn kernel_rows_match_symmetric_gram_bit_for_bit() {
        let data = sample(37, 5);
        for kernel in [Kernel::Rbf { gamma: 0.9 }, Kernel::Rbf { gamma: 40.0 }] {
            let gram = GramMatrix::symmetric(kernel, &data);
            let mut rows = KernelRows::new(kernel, &data);
            // A single row, a pair, then a block (through the cross GEMM)
            // that repeats rows already held.
            rows.load(&[4]).unwrap();
            rows.load(&[30, 0]).unwrap();
            assert_eq!(rows.held(), 3);
            rows.load(&(0..37).rev().collect::<Vec<_>>()).unwrap();
            assert_eq!(rows.held(), 37);
            assert_eq!(rows.len(), 37);
            for i in 0..37 {
                let want: Vec<u64> = gram.matrix().row(i).iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = rows.row(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{kernel:?} row {i}");
            }
        }
    }

    #[test]
    fn kernel_rows_are_identical_at_any_thread_count() {
        let data = sample(300, 4);
        let kernel = Kernel::Rbf { gamma: 0.6 };
        let all: Vec<usize> = (0..300).collect();
        let load = || {
            let mut rows = KernelRows::new(kernel, &data);
            rows.load(&all).unwrap();
            all.iter()
                .flat_map(|&i| rows.row(i).to_vec())
                .collect::<Vec<f64>>()
        };
        let reference = with_threads(1, load);
        assert_eq!(with_threads(2, load), reference);
    }

    #[test]
    fn empty_gram_is_empty() {
        let gram = GramMatrix::symmetric(Kernel::default(), &Matrix::zeros(0, 0));
        assert!(gram.is_empty());
        assert_eq!(gram.total_sum(), 0.0);
        assert_eq!(gram.clone().into_matrix().shape(), (0, 0));
        assert_eq!(
            pairwise_squared_distances(&Matrix::zeros(0, 0)).shape(),
            (0, 0)
        );
    }
}
