use crate::{LinalgError, Matrix};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
///
/// Produces all eigenvalues and an orthonormal eigenbasis, sorted by
/// descending eigenvalue — exactly what PCA needs for covariance matrices of
/// side-channel fingerprints (dimension ≤ a few dozen in this workspace, a
/// regime where Jacobi is both simple and accurate).
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
///
/// # fn main() -> Result<(), sidefp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]])?;
/// let eig = a.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Columns are eigenvectors, in the same order as `eigenvalues`.
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    const MAX_SWEEPS: usize = 100;

    /// Decomposes the symmetric matrix `a`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::Empty`] / [`LinalgError::NotSquare`] on bad shape.
    /// - [`LinalgError::NotPositiveDefinite`] is **not** required — any
    ///   symmetric matrix works; asymmetric input yields
    ///   [`LinalgError::DimensionMismatch`]-free but explicit
    ///   `NotSquare`-like failure via symmetry check
    ///   ([`LinalgError::NotConverged`] is returned only if Jacobi fails to
    ///   reduce off-diagonal mass, which does not occur for symmetric
    ///   input within the sweep budget).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.nrows() == 0 || a.ncols() == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let tol = 1e-8 * a.max_abs().max(1.0);
        if !a.is_symmetric(tol) {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut m = a.clone();
        let mut v = Matrix::identity(n);

        let off = |m: &Matrix| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
            s
        };

        let threshold = 1e-30 * m.frobenius_norm().max(1e-300).powi(2);
        let mut sweeps = 0;
        while off(&m) > threshold {
            sweeps += 1;
            if sweeps > Self::MAX_SWEEPS {
                return Err(LinalgError::NotConverged {
                    iterations: Self::MAX_SWEEPS,
                });
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable computation of tan of the rotation angle.
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Apply the rotation G(p, q, theta) on both sides.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Extract and sort by descending eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        let evals: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        // total_cmp keeps the sort panic-free and deterministic even if
        // corrupted input sneaks a NaN through the sweep.
        order.sort_by(|&i, &j| evals[j].total_cmp(&evals[i]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| evals[i]).collect();
        let eigenvectors = v.select_cols(&order);

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Matrix whose `k`-th column is the eigenvector for `eigenvalues()[k]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let ev = e.eigenvalues();
        assert!((ev[0] - 5.0).abs() < 1e-12);
        assert!((ev[1] - 3.0).abs() < 1e-12);
        assert!((ev[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] - 1.0).abs() < 1e-12);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v = e.eigenvectors().col(0);
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_a_v_equals_v_lambda() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        for k in 0..3 {
            let v = e.eigenvectors().col(k);
            let av = a.matvec(&v).unwrap();
            let lv: Vec<f64> = v.iter().map(|x| x * e.eigenvalues()[k]).collect();
            for (x, y) in av.iter().zip(&lv) {
                assert!((x - y).abs() < 1e-9, "A v != lambda v at mode {k}");
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let v = e.eigenvectors();
        let vtv = v.transpose().matmul(v).unwrap();
        let err = (&vtv - &Matrix::identity(3)).unwrap().max_abs();
        assert!(err < 1e-10);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[2.5, 0.7], &[0.7, 1.5]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let trace = a[(0, 0)] + a[(1, 1)];
        let sum: f64 = e.eigenvalues().iter().sum();
        assert!((trace - sum).abs() < 1e-12);
    }

    #[test]
    fn handles_negative_eigenvalues() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Matrix::zeros(0, 0).symmetric_eigen().is_err());
        assert!(Matrix::zeros(2, 3).symmetric_eigen().is_err());
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(asym.symmetric_eigen().is_err());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[7.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert_eq!(e.eigenvalues(), &[7.0]);
        assert_eq!(e.eigenvectors().col(0), vec![1.0]);
    }
}
