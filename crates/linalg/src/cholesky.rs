use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factor `L` is lower triangular. Besides solving SPD systems (normal
/// equations for ridge regression) the factor is what turns i.i.d. standard
/// normals into correlated multivariate-normal samples in the process
/// variation model.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
///
/// # fn main() -> Result<(), sidefp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let l = chol.factor();
/// let recon = l.matmul(&l.transpose())?;
/// assert!((&recon - &a)?.max_abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is checked loosely (tolerance `1e-8` relative).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::Empty`] / [`LinalgError::NotSquare`] on bad shape.
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is not positive or
    ///   the matrix is visibly asymmetric.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.nrows() == 0 || a.ncols() == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let tol = 1e-8 * a.max_abs().max(1.0);
        if !a.is_symmetric(tol) {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let mut sum = y[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * y[j];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * y[j];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Applies the factor to a vector: `L·z`.
    ///
    /// With `z` a vector of i.i.d. standard normals this produces a sample
    /// with covariance `A`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `z.len() != dim()`.
    pub fn apply_factor(&self, z: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.l.matvec(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let a =
            Matrix::from_rows(&[&[6.0, 3.0, 4.0], &[3.0, 6.0, 5.0], &[4.0, 5.0, 10.0]]).unwrap();
        let c = a.cholesky().unwrap();
        let l = c.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert!((&recon - &a).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let x_chol = a.cholesky().unwrap().solve(&b).unwrap();
        let x_lu = a.lu().unwrap().solve(&b).unwrap();
        assert!((x_chol[0] - x_lu[0]).abs() < 1e-12);
        assert!((x_chol[1] - x_lu[1]).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[0.0, 2.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Matrix::zeros(2, 3).cholesky(),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Matrix::zeros(0, 0).cholesky(),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn apply_factor_produces_covariance() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let c = a.cholesky().unwrap();
        // L * e1 is the first column of L; verify dimensions and finiteness.
        let v = c.apply_factor(&[1.0, 0.0]).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(c.apply_factor(&[1.0]).is_err());
    }

    #[test]
    fn solve_checks_rhs() {
        let a = Matrix::identity(3);
        let c = a.cholesky().unwrap();
        assert!(c.solve(&[1.0, 2.0]).is_err());
    }
}
