use crate::{LinalgError, Matrix};

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// Used for solving general square systems, computing determinants and
/// inverses. The factors are stored packed in a single matrix (unit lower
/// triangle of `L` below the diagonal, `U` on and above it).
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
///
/// # fn main() -> Result<(), sidefp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    packed: Matrix,
    pivots: Vec<usize>,
    /// Sign of the permutation, +1.0 or -1.0 (for determinants).
    perm_sign: f64,
}

impl Lu {
    /// Pivot magnitudes below this threshold are treated as singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::Empty`] if `a` has no elements.
    /// - [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.nrows() == 0 || a.ncols() == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut packed = a.clone();
        let mut pivots = Vec::with_capacity(n);
        let mut perm_sign = 1.0;

        // Scale reference for the singularity test: relative to the matrix
        // magnitude so that uniformly tiny matrices still factorize.
        let scale = packed.max_abs().max(1.0);

        for k in 0..n {
            // Find pivot row.
            let mut p = k;
            let mut best = packed[(k, k)].abs();
            for i in (k + 1)..n {
                let v = packed[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = packed[(k, j)];
                    packed[(k, j)] = packed[(p, j)];
                    packed[(p, j)] = tmp;
                }
                perm_sign = -perm_sign;
            }
            pivots.push(p);

            let pivot = packed[(k, k)];
            for i in (k + 1)..n {
                let factor = packed[(i, k)] / pivot;
                packed[(i, k)] = factor;
                for j in (k + 1)..n {
                    let ukj = packed[(k, j)];
                    packed[(i, j)] -= factor * ukj;
                }
            }
        }

        Ok(Lu {
            packed,
            pivots,
            perm_sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.packed.nrows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        // Apply the row permutation.
        for (k, &p) in self.pivots.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
        }
        // Forward substitution (L has a unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.packed[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.packed[(i, j)] * x[j];
            }
            x[i] = sum / self.packed[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.packed[(i, i)];
        }
        d
    }

    /// Inverse of the factorized matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (none expected for a successfully
    /// factorized matrix).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]).unwrap();
        let lu = a.lu().unwrap();
        let x = lu.solve(&[1.0, -2.0, 0.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] + 2.0).abs() < 1e-10);
        assert!((x[2] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn det_of_triangular_matrix() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]).unwrap();
        assert!((a.lu().unwrap().det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        // Swapping two rows of the identity gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((a.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = (&prod - &Matrix::identity(2)).unwrap().max_abs();
        assert!(err < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular)));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            Matrix::zeros(2, 3).lu(),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(Matrix::zeros(0, 0).lu(), Err(LinalgError::Empty)));
    }

    #[test]
    fn solve_checks_rhs_length() {
        let a = Matrix::identity(2);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]).unwrap();
        let x = a.lu().unwrap().solve_matrix(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 1)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_but_well_conditioned_matrix_factorizes() {
        let a = Matrix::from_rows(&[&[1e-8, 0.0], &[0.0, 1e-8]]).unwrap();
        let lu = a.lu().unwrap();
        let x = lu.solve(&[1e-8, 2e-8]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }
}
