use sidefp_linalg::Matrix;

use crate::StatsError;

/// Principal Component Analysis via eigendecomposition of the sample
/// covariance matrix.
///
/// The paper (Fig. 4) projects each 6-dimensional fingerprint dataset onto
/// its top three principal components for visualization; [`Pca`] provides
/// exactly that projection plus explained-variance diagnostics.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::Pca;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Data varying only along the diagonal of the plane.
/// let data = Matrix::from_rows(&[
///     &[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0],
/// ])?;
/// let pca = Pca::fit(&data)?;
/// // One dominant component explains all variance.
/// assert!(pca.explained_variance_ratio()[0] > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Columns are principal directions, descending eigenvalue order.
    components: Matrix,
    eigenvalues: Vec<f64>,
}

impl Pca {
    /// Fits PCA on the rows of `data`.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] for fewer than two rows.
    /// - [`StatsError::Linalg`] if the eigendecomposition fails.
    pub fn fit(data: &Matrix) -> Result<Self, StatsError> {
        if data.nrows() < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: data.nrows(),
            });
        }
        let mean = data.column_means();
        let cov = data.covariance()?;
        let eig = cov.symmetric_eigen()?;
        Ok(Pca {
            mean,
            components: eig.eigenvectors().clone(),
            eigenvalues: eig.eigenvalues().to_vec(),
        })
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Per-component variances (descending).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Mean of the training data.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Fraction of total variance carried by each component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().map(|v| v.max(0.0)).sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues
            .iter()
            .map(|v| v.max(0.0) / total)
            .collect()
    }

    /// Projects rows of `data` onto the top `k` components.
    ///
    /// # Errors
    ///
    /// - [`StatsError::DimensionMismatch`] if the column count differs.
    /// - [`StatsError::InvalidParameter`] if `k` is zero or exceeds the
    ///   dimension.
    pub fn project(&self, data: &Matrix, k: usize) -> Result<Matrix, StatsError> {
        if data.ncols() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: data.ncols(),
            });
        }
        if k == 0 || k > self.dim() {
            return Err(StatsError::InvalidParameter {
                name: "k",
                reason: format!("must be in 1..={}, got {k}", self.dim()),
            });
        }
        let mut out = Matrix::zeros(data.nrows(), k);
        for (i, row) in data.rows_iter().enumerate() {
            for j in 0..k {
                let mut dot = 0.0;
                for (d, v) in row.iter().enumerate() {
                    dot += (v - self.mean[d]) * self.components[(d, j)];
                }
                out[(i, j)] = dot;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultivariateNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_dominant_direction() {
        // Strongly elongated Gaussian along (1, 1)/√2.
        let cov = Matrix::from_rows(&[&[5.0, 4.9], &[4.9, 5.0]]).unwrap();
        let mvn = MultivariateNormal::new(vec![0.0, 0.0], &cov).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = mvn.sample_matrix(&mut rng, 2000);
        let pca = Pca::fit(&data).unwrap();
        let pc1 = pca.components_column(0);
        let aligned = (pc1[0] * pc1[1]).signum();
        assert!(aligned > 0.0, "PC1 {pc1:?} not along the diagonal");
        assert!((pc1[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
    }

    #[test]
    fn explained_variance_sums_to_one() {
        let data = random_blob(100, 3, 2);
        let pca = Pca::fit(&data).unwrap();
        let sum: f64 = pca.explained_variance_ratio().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Ratios are sorted descending.
        let r = pca.explained_variance_ratio();
        assert!(r[0] >= r[1] && r[1] >= r[2]);
    }

    #[test]
    fn projection_shape_and_centering() {
        let data = random_blob(50, 4, 3);
        let pca = Pca::fit(&data).unwrap();
        let proj = pca.project(&data, 2).unwrap();
        assert_eq!(proj.shape(), (50, 2));
        // Projections of training data are centered.
        let means = proj.column_means();
        assert!(means[0].abs() < 1e-9 && means[1].abs() < 1e-9);
    }

    #[test]
    fn projection_preserves_variance_order() {
        let data = random_blob(300, 3, 4);
        let pca = Pca::fit(&data).unwrap();
        let proj = pca.project(&data, 3).unwrap();
        let var: Vec<f64> = (0..3)
            .map(|j| crate::descriptive::variance(&proj.col(j)).unwrap())
            .collect();
        assert!(var[0] >= var[1] && var[1] >= var[2]);
        // Projected variances equal eigenvalues.
        for (v, e) in var.iter().zip(pca.eigenvalues()) {
            assert!((v - e).abs() < 1e-6 * e.max(1.0), "var {v} vs eig {e}");
        }
    }

    #[test]
    fn error_paths() {
        let data = random_blob(20, 2, 6);
        let pca = Pca::fit(&data).unwrap();
        assert!(pca.project(&data, 0).is_err());
        assert!(pca.project(&data, 3).is_err());
        assert!(pca.project(&Matrix::zeros(5, 3), 1).is_err());
        assert!(Pca::fit(&Matrix::zeros(1, 2)).is_err());
    }

    fn random_blob(n: usize, d: usize, seed: u64) -> Matrix {
        let stds: Vec<f64> = (0..d).map(|i| 1.0 + i as f64).collect();
        let mvn = MultivariateNormal::independent(vec![0.0; d], &stds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // Shuffle the std order so eigen sorting is exercised: make the last
        // dimension the largest → PCA must reorder.
        mvn.sample_matrix(&mut rng, n)
    }

    impl Pca {
        fn components_column(&self, k: usize) -> Vec<f64> {
            self.components.col(k)
        }
    }
}
