use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{Cholesky, LinalgError, Lu, Qr, SymmetricEigen};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the workspace: design matrices for
/// regression, kernel matrices for the SVM/KMM solvers and covariance
/// matrices for PCA/KDE all use it.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
///
/// # fn main() -> Result<(), sidefp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = (&a * &b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty input and
    /// [`LinalgError::DimensionMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        let cols = first.len();
        if cols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (1, data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix whose rows are the given sample vectors.
    ///
    /// This is the common entry point for datasets: one sample per row.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] or [`LinalgError::DimensionMismatch`]
    /// on ragged input.
    pub fn from_samples(samples: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let refs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `A * x` written into `out` — the
    /// allocation-free form of [`Matrix::matvec`], with the identical
    /// left-to-right accumulation per row (bit-identical results).
    ///
    /// Rows are processed four at a time so their independent accumulator
    /// chains pipeline; each output element is still one ascending-index
    /// single-accumulator fold over its own row, so results are
    /// bit-identical to the row-at-a-time loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != ncols()`
    /// or `out.len() != nrows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_into",
                lhs: (self.rows, self.cols),
                rhs: (out.len(), 1),
            });
        }
        let cols = self.cols;
        let x = &x[..cols];
        let split = self.rows & !3;
        for i in (0..split).step_by(4) {
            let r0 = &self.row(i)[..cols];
            let r1 = &self.row(i + 1)[..cols];
            let r2 = &self.row(i + 2)[..cols];
            let r3 = &self.row(i + 3)[..cols];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (k, &xk) in x.iter().enumerate() {
                a0 += r0[k] * xk;
                a1 += r1[k] * xk;
                a2 += r2[k] * xk;
                a3 += r3[k] * xk;
            }
            out[i] = a0;
            out[i + 1] = a1;
            out[i + 2] = a2;
            out[i + 3] = a3;
        }
        for (o, row) in out[split..].iter_mut().zip(self.rows_iter().skip(split)) {
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(())
    }

    /// Vector-matrix product `xᵀ * A`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != nrows()`.
    pub fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "vecmat",
                lhs: (1, x.len()),
                rhs: (self.rows, self.cols),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, row) in self.rows_iter().enumerate() {
            let xi = x[i];
            for (o, a) in out.iter_mut().zip(row) {
                *o += xi * a;
            }
        }
        Ok(out)
    }

    /// Matrix product `A * B` through the packed-panel GEMM
    /// ([`crate::gemm::gemm_nn`]). Each output element is one ascending-`k`
    /// fold, so results match the naive triple loop exactly at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.ncols() != rhs.nrows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.rows == 0 || rhs.cols == 0 || self.cols == 0 {
            return Ok(out);
        }
        crate::gemm::gemm_nn(self, rhs, &mut out);
        Ok(out)
    }

    /// Gram matrix `AᵀA` (symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for row in self.rows_iter() {
            for j in 0..self.cols {
                let rj = row[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..self.cols {
                    out[(j, k)] += rj * row[k];
                }
            }
        }
        for j in 0..self.cols {
            for k in 0..j {
                out[(j, k)] = out[(k, j)];
            }
        }
        out
    }

    /// Element-wise in-place scaling by `factor`.
    pub fn scale_mut(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Returns `self * factor` as a new matrix.
    pub fn scaled(&self, factor: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(factor);
        out
    }

    /// Sum of the diagonal entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn trace(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// The main diagonal as a vector (works for rectangular matrices,
    /// length `min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// `true` if the matrix is symmetric within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the sub-matrix of the given rows (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(indices.len(), self.cols, |i, j| self[(indices[i], j)])
    }

    /// Extracts the sub-matrix of the given columns (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, indices.len(), |i, j| self[(i, indices[j])])
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Per-column means; empty matrix yields an empty vector.
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Sample covariance matrix of the rows (denominator `n − 1`).
    ///
    /// One pass over the rows: each row's deviations from the column means
    /// are computed once into a `d`-length buffer, and the products
    /// `(x_j − m_j)(x_k − m_k)`, `k ≥ j`, accumulate in row order into a
    /// packed upper triangle. A row whose deviation in column `j` is
    /// exactly zero adds nothing to row `j` of the triangle.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if the matrix has fewer than two rows.
    pub fn covariance(&self) -> Result<Matrix, LinalgError> {
        if self.rows < 2 {
            return Err(LinalgError::Empty);
        }
        let d = self.cols;
        let means = self.column_means();
        let mut dev = vec![0.0; d];
        let mut upper = vec![0.0; d * (d + 1) / 2];
        for row in self.rows_iter() {
            for ((v, x), m) in dev.iter_mut().zip(row).zip(&means) {
                *v = x - m;
            }
            let mut start = 0;
            for j in 0..d {
                let dj = dev[j];
                if dj != 0.0 {
                    for (c, dk) in upper[start..start + d - j].iter_mut().zip(&dev[j..]) {
                        *c += dj * dk;
                    }
                }
                start += d - j;
            }
        }
        let denom = (self.rows - 1) as f64;
        let mut cov = Matrix::zeros(d, d);
        let mut start = 0;
        for j in 0..d {
            for (k, c) in (j..d).zip(&upper[start..start + d - j]) {
                cov[(j, k)] = c / denom;
                cov[(k, j)] = cov[(j, k)];
            }
            start += d - j;
        }
        Ok(cov)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// See [`Lu::new`].
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::new(self)
    }

    /// Cholesky factorization (`self` must be symmetric positive definite).
    ///
    /// # Errors
    ///
    /// See [`Cholesky::new`].
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// Householder QR factorization.
    ///
    /// # Errors
    ///
    /// See [`Qr::new`].
    pub fn qr(&self) -> Result<Qr, LinalgError> {
        Qr::new(self)
    }

    /// Eigendecomposition of a symmetric matrix via cyclic Jacobi sweeps.
    ///
    /// # Errors
    ///
    /// See [`SymmetricEigen::new`].
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        SymmetricEigen::new(self)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn add(self, rhs: &Matrix) -> Self::Output {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn sub(self, rhs: &Matrix) -> Self::Output {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn mul(self, rhs: &Matrix) -> Self::Output {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.rows_iter() {
            write!(f, "  ")?;
            for v in row {
                write!(f, "{v:>12.5} ")?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert!(near(i[(0, 0)], 1.0) && near(i[(0, 1)], 0.0));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::Empty
        ));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(near(m[(1, 0)], 3.0));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.transpose(), m);
        assert!(near(t[(2, 1)], 6.0));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(near(c[(0, 0)], 19.0));
        assert!(near(c[(0, 1)], 22.0));
        assert!(near(c[(1, 0)], 43.0));
        assert!(near(c[(1, 1)], 50.0));
    }

    #[test]
    fn matmul_identical_at_any_thread_count() {
        let a = Matrix::from_fn(37, 23, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.37 - 1.5);
        let b = Matrix::from_fn(23, 29, |i, j| ((i * 11 + j * 17) % 19) as f64 * 0.21 - 0.9);
        let reference = sidefp_parallel::with_threads(1, || a.matmul(&b).unwrap());
        for threads in [2, 3, 8] {
            let got = sidefp_parallel::with_threads(threads, || a.matmul(&b).unwrap());
            assert_eq!(got.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn matmul_empty_shapes() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 4));
        let c = Matrix::zeros(4, 0);
        assert_eq!(b.matmul(&c).unwrap().shape(), (3, 0));
    }

    #[test]
    fn as_mut_slice_is_row_major() {
        let mut m = Matrix::zeros(2, 2);
        m.as_mut_slice()[3] = 5.0;
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert!(near(y[0], 3.0) && near(y[1], 7.0));
        let z = a.vecmat(&[1.0, 1.0]).unwrap();
        assert!(near(z[0], 4.0) && near(z[1], 6.0));
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn gram_equals_at_a() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!((&g - &expected).unwrap().max_abs() < 1e-12);
        assert!(g.is_symmetric(1e-14));
    }

    #[test]
    fn covariance_of_known_data() {
        // Two perfectly correlated columns.
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let c = m.covariance().unwrap();
        assert!(near(c[(0, 0)], 1.0));
        assert!(near(c[(0, 1)], 2.0));
        assert!(near(c[(1, 1)], 4.0));
        assert!(Matrix::zeros(1, 2).covariance().is_err());
    }

    #[test]
    fn covariance_matches_per_entry_reference_bit_for_bit() {
        // Per-entry reference: for each (j, k), fold the rows in order,
        // skipping a row whose column-j deviation is exactly zero.
        fn reference(m: &Matrix) -> Matrix {
            let means = m.column_means();
            let d = m.ncols();
            let mut cov = Matrix::zeros(d, d);
            for j in 0..d {
                for k in j..d {
                    let mut acc = 0.0;
                    for row in m.rows_iter() {
                        let dj = row[j] - means[j];
                        if dj != 0.0 {
                            acc += dj * (row[k] - means[k]);
                        }
                    }
                    cov[(j, k)] = acc / (m.nrows() - 1) as f64;
                    cov[(k, j)] = cov[(j, k)];
                }
            }
            cov
        }
        for (rows, cols) in [(2, 1), (7, 3), (200, 6), (57, 11)] {
            let mut m = Matrix::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 17) as f64 * 0.613).sin() * (1.0 + j as f64)
            });
            // Column 0 reads 1, 2, 3, 2, 2, … with a mean of exactly 2, so
            // every row but the first and third has a zero deviation there.
            if rows >= 7 {
                for i in 0..rows {
                    m[(i, 0)] = if i < 3 { 1.0 + i as f64 } else { 2.0 };
                }
            }
            let got = m.covariance().unwrap();
            let want = reference(&m);
            let bits = |c: &Matrix| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
        }
    }

    #[test]
    fn column_means_and_cols() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]).unwrap();
        let means = m.column_means();
        assert!(near(means[0], 2.0) && near(means[1], 20.0));
        assert_eq!(m.col(1), vec![10.0, 30.0]);
    }

    #[test]
    fn stack_operations() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert!(near(v[(1, 0)], 3.0));
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let r = m.select_rows(&[2, 0]);
        assert!(near(r[(0, 0)], 7.0) && near(r[(1, 2)], 3.0));
        let c = m.select_cols(&[1]);
        assert_eq!(c.shape(), (3, 1));
        assert!(near(c[(2, 0)], 8.0));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        let s = (&a + &b).unwrap();
        assert!(near(s[(0, 1)], 7.0));
        let d = (&b - &a).unwrap();
        assert!(near(d[(0, 0)], 2.0));
        let n = -&a;
        assert!(near(n[(0, 0)], -1.0));
        assert!((&a + &Matrix::zeros(2, 2)).is_err());
        assert!((&a - &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!(near(m.frobenius_norm(), 5.0));
        assert!(near(m.max_abs(), 4.0));
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[2.1, 5.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-3));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn display_contains_values() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert!(s.contains("2x2"));
        assert!(s.contains("1.00000"));
    }

    #[test]
    fn from_samples_builds_dataset() {
        let samples = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = Matrix::from_samples(&samples).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(near(m[(1, 1)], 4.0));
    }

    #[test]
    fn trace_and_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.trace().unwrap(), 5.0);
        assert_eq!(m.diagonal(), vec![1.0, 4.0]);
        assert!(Matrix::zeros(2, 3).trace().is_err());
        assert_eq!(Matrix::zeros(2, 3).diagonal(), vec![0.0, 0.0]);
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[3.0, 4.0]);
    }
}
