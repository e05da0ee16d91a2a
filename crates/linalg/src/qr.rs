use crate::{LinalgError, Matrix};

/// Householder QR factorization `A = Q·R` for `m x n` matrices with `m >= n`.
///
/// The primary consumer is least-squares fitting in the MARS regression
/// engine: `min ‖A·x − b‖₂` is solved stably as `R·x = Qᵀ·b` without forming
/// the (squared-condition-number) normal equations.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
///
/// # fn main() -> Result<(), sidefp_linalg::LinalgError> {
/// // Overdetermined fit of y = 2x through three noisy points.
/// let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]])?;
/// let x = a.qr()?.solve_least_squares(&[2.1, 3.9, 6.0])?;
/// assert!((x[0] - 2.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed Householder vectors (below diagonal) and R (upper triangle).
    packed: Matrix,
    /// Householder scalar for each reflection.
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Qr {
    /// Diagonal entries of `R` smaller than this (relative) are treated as
    /// rank deficiencies by [`Qr::solve_least_squares`].
    const RANK_TOL: f64 = 1e-12;

    /// Factorizes `a` (requires `nrows >= ncols`).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::Empty`] if `a` has no elements.
    /// - [`LinalgError::DimensionMismatch`] if `nrows < ncols`.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                op: "qr (needs rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        let mut packed = a.clone();
        let mut betas = Vec::with_capacity(n);

        for k in 0..n {
            // Build the Householder vector for column k.
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += packed[(i, k)] * packed[(i, k)];
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                betas.push(0.0);
                continue;
            }
            let alpha = if packed[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = packed[(k, k)] - alpha;
            // v = (v0, a[k+1..m, k]); beta = 2 / (vᵀv)
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += packed[(i, k)] * packed[(i, k)];
            }
            let mut beta = if vtv == 0.0 { 0.0 } else { 2.0 / vtv };
            // Apply the reflection to the trailing columns.
            for j in (k + 1)..n {
                let mut dot = v0 * packed[(k, j)];
                for i in (k + 1)..m {
                    dot += packed[(i, k)] * packed[(i, j)];
                }
                let s = beta * dot;
                packed[(k, j)] -= s * v0;
                for i in (k + 1)..m {
                    let vik = packed[(i, k)];
                    packed[(i, j)] -= s * vik;
                }
            }
            // Store R diagonal and the v vector (v0 implicit via alpha).
            packed[(k, k)] = alpha;
            // Store the sub-diagonal part of v scaled so that v0 is recoverable:
            // we keep v as-is below the diagonal and remember v0 in betas via a
            // parallel array.
            // Stash v0 by normalizing: store v_i / v0 below the diagonal.
            if v0 != 0.0 {
                for i in (k + 1)..m {
                    packed[(i, k)] /= v0;
                }
                // Fold v0² into beta so the implicit v has v0 = 1.
                beta *= v0 * v0;
            }
            betas.push(beta);
        }

        Ok(Qr {
            packed,
            betas,
            rows: m,
            cols: n,
        })
    }

    /// Applies `Qᵀ` to a vector of length `nrows`.
    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = (self.rows, self.cols);
        let mut y = b.to_vec();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            // v = (1, packed[k+1..m, k])
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += self.packed[(i, k)] * y[i];
            }
            let s = beta * dot;
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * self.packed[(i, k)];
            }
        }
        y
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// Rank-deficient columns (tiny `R` diagonal) receive a zero
    /// coefficient rather than an error, which is the behaviour the MARS
    /// forward pass wants when candidate bases are collinear.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != nrows`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "qr solve",
                lhs: (self.rows, self.cols),
                rhs: (b.len(), 1),
            });
        }
        let y = self.apply_qt(b);
        let n = self.cols;
        let scale = (0..n)
            .map(|i| self.packed[(i, i)].abs())
            .fold(0.0_f64, f64::max)
            .max(1.0);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let rii = self.packed[(i, i)];
            if rii.abs() < Self::RANK_TOL * scale {
                x[i] = 0.0;
                continue;
            }
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.packed[(i, j)] * x[j];
            }
            x[i] = sum / rii;
        }
        Ok(x)
    }

    /// Residual sum of squares for a right-hand side.
    ///
    /// Exposes the intermediate result so callers fitting many RHS (MARS
    /// forward pass) don't recompute `‖A·x − b‖²` by hand.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != nrows`.
    pub fn residual_sum_of_squares(&self, b: &[f64]) -> Result<f64, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "qr rss",
                lhs: (self.rows, self.cols),
                rhs: (b.len(), 1),
            });
        }
        let y = self.apply_qt(b);
        // Components beyond the column space contribute the residual,
        // except where R had a zero diagonal (rank deficiency).
        let scale = (0..self.cols)
            .map(|i| self.packed[(i, i)].abs())
            .fold(0.0_f64, f64::max)
            .max(1.0);
        let mut rss: f64 = y[self.cols..].iter().map(|v| v * v).sum();
        for i in 0..self.cols {
            if self.packed[(i, i)].abs() < Self::RANK_TOL * scale {
                rss += y[i] * y[i];
            }
        }
        Ok(rss)
    }

    /// The upper-triangular factor `R` (the `n x n` leading block).
    pub fn r(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.cols, |i, j| {
            if j >= i {
                self.packed[(i, j)]
            } else {
                0.0
            }
        })
    }
}

/// Incremental Householder QR for one fixed right-hand side.
///
/// The MARS forward pass evaluates thousands of candidate bases per
/// round, and every candidate shares the design columns already in the
/// model: refactorizing the full design per candidate repeats the same
/// leading reflections over and over. `QrBuilder` factors columns as
/// they are pushed — clone the shared prefix once per candidate, push
/// the candidate's columns, and read [`QrBuilder::rss`].
///
/// The arithmetic replays [`Qr::new`] exactly: a pushed column receives
/// the stored reflections in order (in their *unnormalized* form, as the
/// eager trailing-column updates apply them), then contributes its own
/// reflector; `Qᵀ·y` is maintained with the *normalized* form
/// `Qr::apply_qt` uses. Every fold runs in the same order on the same
/// values, so [`QrBuilder::rss`] is bit-identical to
/// [`Qr::residual_sum_of_squares`] on the equivalent full factorization.
#[derive(Debug, Clone)]
pub struct QrBuilder {
    rows: usize,
    /// Raw Householder vectors `[v0, v_{k+1}, …, v_{m−1}]` per column —
    /// empty for zero-norm columns (no reflection). The normalized form
    /// is only needed once (for the `Qᵀ·y` fold at push time), so it is
    /// not stored.
    vraw: Vec<Vec<f64>>,
    /// `2 / vᵀv` for the raw form (`0.0` marks a skipped reflection).
    beta_raw: Vec<f64>,
    /// `R` diagonal per column (`alpha`, or the leftover pivot value for
    /// zero-norm columns — matching the packed layout of [`Qr::new`]).
    diag: Vec<f64>,
    /// `Qᵀ·y`, updated as each reflector lands.
    qty: Vec<f64>,
}

impl QrBuilder {
    /// Starts an empty factorization for `rows`-length columns against
    /// the right-hand side `y`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::Empty`] if `rows == 0`.
    /// - [`LinalgError::DimensionMismatch`] if `y.len() != rows`.
    pub fn new(rows: usize, y: &[f64]) -> Result<Self, LinalgError> {
        if rows == 0 {
            return Err(LinalgError::Empty);
        }
        if y.len() != rows {
            return Err(LinalgError::DimensionMismatch {
                op: "qr builder (rhs length)",
                lhs: (rows, 1),
                rhs: (y.len(), 1),
            });
        }
        Ok(QrBuilder {
            rows,
            vraw: Vec::new(),
            beta_raw: Vec::new(),
            diag: Vec::new(),
            qty: y.to_vec(),
        })
    }

    /// Number of columns factored so far.
    pub fn cols(&self) -> usize {
        self.diag.len()
    }

    /// Appends one design column to the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the column length is
    /// not `rows`, or if the factorization is already square (Householder
    /// QR needs `rows >= cols`).
    pub fn push_column(&mut self, col: &[f64]) -> Result<(), LinalgError> {
        let m = self.rows;
        let k = self.diag.len();
        if col.len() != m || k >= m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr builder push (needs rows >= cols)",
                lhs: (m, k + 1),
                rhs: (col.len(), 1),
            });
        }
        let mut c = col.to_vec();
        // Replay the stored reflections in order, exactly as the eager
        // trailing-column updates in `Qr::new` would have applied them.
        for (r, v) in self.vraw.iter().enumerate() {
            let beta = self.beta_raw[r];
            if beta == 0.0 {
                continue;
            }
            let mut dot = v[0] * c[r];
            for (i, vi) in v.iter().enumerate().skip(1) {
                dot += vi * c[r + i];
            }
            let s = beta * dot;
            for (i, vi) in v.iter().enumerate() {
                c[r + i] -= s * vi;
            }
        }
        // Build this column's reflector (same folds as `Qr::new`).
        let mut norm_sq = 0.0;
        for i in k..m {
            norm_sq += c[i] * c[i];
        }
        let norm = norm_sq.sqrt();
        if norm == 0.0 {
            self.vraw.push(Vec::new());
            self.beta_raw.push(0.0);
            self.diag.push(c[k]);
            return Ok(());
        }
        let alpha = if c[k] >= 0.0 { -norm } else { norm };
        let v0 = c[k] - alpha;
        let mut vtv = v0 * v0;
        for i in (k + 1)..m {
            vtv += c[i] * c[i];
        }
        let beta = if vtv == 0.0 { 0.0 } else { 2.0 / vtv };
        let mut vraw = Vec::with_capacity(m - k);
        vraw.push(v0);
        vraw.extend_from_slice(&c[(k + 1)..]);
        // Normalized form: `v0` is always nonzero here (it carries the
        // full magnitude of `norm`), matching the normalization branch.
        let beta_n = beta * (v0 * v0);
        let vnorm: Vec<f64> = c[(k + 1)..].iter().map(|vi| vi / v0).collect();
        // Fold the reflection into Qᵀ·y with the normalized vector —
        // the same update `Qr::apply_qt` performs after the fact.
        if beta_n != 0.0 {
            let mut dot = self.qty[k];
            for (i, vn) in vnorm.iter().enumerate() {
                dot += vn * self.qty[k + 1 + i];
            }
            let s = beta_n * dot;
            self.qty[k] -= s;
            for (i, vn) in vnorm.iter().enumerate() {
                self.qty[k + 1 + i] -= s * vn;
            }
        }
        self.vraw.push(vraw);
        self.beta_raw.push(beta);
        self.diag.push(alpha);
        Ok(())
    }

    /// Residual sum of squares of the fixed right-hand side against the
    /// columns pushed so far; bit-identical to
    /// [`Qr::residual_sum_of_squares`] on the equivalent factorization.
    pub fn rss(&self) -> f64 {
        let n = self.diag.len();
        let scale = self
            .diag
            .iter()
            .map(|d| d.abs())
            .fold(0.0_f64, f64::max)
            .max(1.0);
        let mut rss: f64 = self.qty[n..].iter().map(|v| v * v).sum();
        for (d, q) in self.diag.iter().zip(&self.qty) {
            if d.abs() < Qr::RANK_TOL * scale {
                rss += q * q;
            }
        }
        rss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.qr().unwrap().solve_least_squares(&[3.0, 5.0]).unwrap();
        let lu = a.lu().unwrap().solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - lu[0]).abs() < 1e-12);
        assert!((x[1] - lu[1]).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_regression() {
        // y = 1 + 2x fitted from 4 exact points must recover coefficients.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let y = [1.0, 3.0, 5.0, 7.0];
        let x = a.qr().unwrap().solve_least_squares(&y).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn residual_of_exact_fit_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
        let y = [1.0, 2.0, 3.0];
        let qr = a.qr().unwrap();
        assert!(qr.residual_sum_of_squares(&y).unwrap() < 1e-20);
    }

    #[test]
    fn residual_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[1.0, 1.5], &[1.0, 2.5], &[1.0, 4.0]]).unwrap();
        let y = [0.9, 2.2, 2.8, 4.5];
        let qr = a.qr().unwrap();
        let x = qr.solve_least_squares(&y).unwrap();
        let yhat = a.matvec(&x).unwrap();
        let direct: f64 = y
            .iter()
            .zip(&yhat)
            .map(|(yi, yh)| (yi - yh) * (yi - yh))
            .sum();
        let via_qr = qr.residual_sum_of_squares(&y).unwrap();
        assert!((direct - via_qr).abs() < 1e-10);
    }

    #[test]
    fn collinear_columns_get_zero_coefficient() {
        // Second column is an exact copy of the first.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let qr = a.qr().unwrap();
        let x = qr.solve_least_squares(&[2.0, 4.0, 6.0]).unwrap();
        // Fit is still exact with the redundant column zeroed.
        let yhat = a.matvec(&x).unwrap();
        assert!((yhat[0] - 2.0).abs() < 1e-10);
        assert!((yhat[2] - 6.0).abs() < 1e-10);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let r = a.qr().unwrap().r();
        assert_eq!(r.shape(), (2, 2));
        assert_eq!(r[(1, 0)], 0.0);
        // |R| diag product equals sqrt(det(AᵀA)).
        let gram = a.gram();
        let det_gram = gram.lu().unwrap().det();
        let prod = (r[(0, 0)] * r[(1, 1)]).abs();
        assert!((prod - det_gram.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn rejects_wide_and_empty() {
        assert!(Matrix::zeros(2, 3).qr().is_err());
        assert!(Matrix::zeros(0, 0).qr().is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let qr = a.qr().unwrap();
        assert!(qr.solve_least_squares(&[1.0]).is_err());
        assert!(qr.residual_sum_of_squares(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn builder_rss_bit_identical_to_full_qr_at_every_prefix() {
        for (m, n) in [(6usize, 1usize), (10, 4), (60, 7), (5, 5)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                (0.23 + i as f64 * 1.37 + j as f64 * 0.71).sin() * 2.0
            });
            let y: Vec<f64> = (0..m).map(|i| (i as f64 * 0.91).cos() * 1.5).collect();
            let mut builder = QrBuilder::new(m, &y).unwrap();
            for j in 0..n {
                let col: Vec<f64> = (0..m).map(|i| a[(i, j)]).collect();
                builder.push_column(&col).unwrap();
                assert_eq!(builder.cols(), j + 1);
                let prefix = Matrix::from_fn(m, j + 1, |r, c| a[(r, c)]);
                let full = prefix.qr().unwrap().residual_sum_of_squares(&y).unwrap();
                assert_eq!(
                    builder.rss().to_bits(),
                    full.to_bits(),
                    "{m}x{n} prefix {}",
                    j + 1
                );
            }
        }
    }

    #[test]
    fn builder_matches_full_qr_on_zero_and_collinear_columns() {
        // Column 1 is all zeros (norm-zero skip), column 2 duplicates
        // column 0 (rank deficiency) — both exercise the sentinel paths.
        let cols = [
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0.0; 5],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0.5, -1.0, 2.0, 0.0, 1.0],
        ];
        let y = [1.0, -0.5, 2.0, 0.25, -1.5];
        let mut builder = QrBuilder::new(5, &y).unwrap();
        for (j, col) in cols.iter().enumerate() {
            builder.push_column(col).unwrap();
            let prefix = Matrix::from_fn(5, j + 1, |r, c| cols[c][r]);
            let full = prefix.qr().unwrap().residual_sum_of_squares(&y).unwrap();
            assert_eq!(builder.rss().to_bits(), full.to_bits(), "prefix {}", j + 1);
        }
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        assert!(QrBuilder::new(0, &[]).is_err());
        assert!(QrBuilder::new(3, &[1.0]).is_err());
        let mut builder = QrBuilder::new(2, &[1.0, 2.0]).unwrap();
        assert!(builder.push_column(&[1.0]).is_err());
        builder.push_column(&[1.0, 0.0]).unwrap();
        builder.push_column(&[0.0, 1.0]).unwrap();
        // Square factorization is full: a third column would make it wide.
        assert!(builder.push_column(&[1.0, 1.0]).is_err());
    }
}
