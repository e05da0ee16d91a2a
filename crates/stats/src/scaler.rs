use sidefp_linalg::Matrix;

use crate::StatsError;

/// Z-score feature standardizer.
///
/// Kernel methods (OC-SVM, KMM) and KDE are scale-sensitive; fingerprint
/// coordinates measured in different physical units (power, delay) must be
/// standardized before a shared kernel width makes sense. The scaler is
/// fitted on a training matrix and can then transform and inverse-transform
/// arbitrary data of the same dimension.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::StandardScaler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = Matrix::from_rows(&[&[10.0, 0.0], &[20.0, 1.0], &[30.0, 2.0]])?;
/// let scaler = StandardScaler::fit(&data)?;
/// let z = scaler.transform(&data)?;
/// assert!(z.col(0).iter().sum::<f64>().abs() < 1e-12);
/// let back = scaler.inverse_transform(&z)?;
/// assert!((&back - &data)?.max_abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits per-column mean and standard deviation.
    ///
    /// Columns with zero variance get a unit scale so that transforming
    /// them is a pure mean shift rather than a division by zero.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] if `data` has fewer than two
    /// rows.
    pub fn fit(data: &Matrix) -> Result<Self, StatsError> {
        if data.nrows() < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: data.nrows(),
            });
        }
        // Two row-major passes, one for the sums and one for the squared
        // deviations. Each column's accumulator starts at −0.0 and takes
        // its values in row order, as `f64`'s `Sum` does, so the result is
        // bit-identical to `descriptive::mean`/`std_dev` on a column copy.
        let n = data.nrows() as f64;
        let mut means = vec![-0.0; data.ncols()];
        for row in data.rows_iter() {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![-0.0; data.ncols()];
        for row in data.rows_iter() {
            for ((s, &x), &m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (x - m) * (x - m);
            }
        }
        for (s, &mean) in stds.iter_mut().zip(&means) {
            let sd = (*s / (n - 1.0)).sqrt();
            // Columns that are constant up to floating-point round-off must
            // be treated as zero-variance, or the z-scores explode.
            let floor = mean.abs() * 1e-9 + 1e-12;
            *s = if sd > floor { sd } else { 1.0 };
        }
        Ok(StandardScaler { means, stds })
    }

    /// Reconstructs a scaler from previously fitted parameters (see
    /// [`StandardScaler::means`] / [`StandardScaler::stds`]), e.g. when
    /// loading a persisted model artifact. Transforms of the rebuilt scaler
    /// are bit-identical to the original.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when the vectors are empty
    /// or of different lengths, a mean is non-finite, or a standard
    /// deviation is not strictly positive and finite.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Result<Self, StatsError> {
        if means.is_empty() || means.len() != stds.len() {
            return Err(StatsError::InvalidParameter {
                name: "scaler",
                reason: format!("{} means vs {} stds", means.len(), stds.len()),
            });
        }
        if means.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "scaler.means",
                reason: "contains a non-finite value".into(),
            });
        }
        if stds.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(StatsError::InvalidParameter {
                name: "scaler.stds",
                reason: "every std must be strictly positive and finite".into(),
            });
        }
        Ok(StandardScaler { means, stds })
    }

    /// Dimension the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Fitted per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-column standard deviations (zero-variance columns report 1).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Transforms a matrix to z-scores.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on column-count mismatch.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix, StatsError> {
        if data.ncols() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: data.ncols(),
            });
        }
        Ok(Matrix::from_fn(data.nrows(), data.ncols(), |i, j| {
            (data[(i, j)] - self.means[j]) / self.stds[j]
        }))
    }

    /// Transforms a single sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on length mismatch.
    pub fn transform_sample(&self, sample: &[f64]) -> Result<Vec<f64>, StatsError> {
        if sample.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: sample.len(),
            });
        }
        Ok(sample
            .iter()
            .enumerate()
            .map(|(j, v)| (v - self.means[j]) / self.stds[j])
            .collect())
    }

    /// Allocation-free form of [`StandardScaler::transform_sample`]: writes
    /// the z-scores into `out` with the identical arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `sample` or `out`
    /// length differs from the fitted dimension.
    pub fn transform_sample_into(&self, sample: &[f64], out: &mut [f64]) -> Result<(), StatsError> {
        if sample.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: sample.len(),
            });
        }
        if out.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: out.len(),
            });
        }
        for (j, (o, v)) in out.iter_mut().zip(sample).enumerate() {
            *o = (v - self.means[j]) / self.stds[j];
        }
        Ok(())
    }

    /// Maps z-scores back to the original units.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on column-count mismatch.
    pub fn inverse_transform(&self, data: &Matrix) -> Result<Matrix, StatsError> {
        if data.ncols() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: data.ncols(),
            });
        }
        Ok(Matrix::from_fn(data.nrows(), data.ncols(), |i, j| {
            data[(i, j)] * self.stds[j] + self.means[j]
        }))
    }

    /// Maps a single z-scored sample back to original units.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on length mismatch.
    pub fn inverse_transform_sample(&self, sample: &[f64]) -> Result<Vec<f64>, StatsError> {
        if sample.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                expected: self.dim(),
                got: sample.len(),
            });
        }
        Ok(sample
            .iter()
            .enumerate()
            .map(|(j, v)| v * self.stds[j] + self.means[j])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::descriptive;

    fn data() -> Matrix {
        Matrix::from_rows(&[&[10.0, 5.0], &[20.0, 5.0], &[30.0, 5.0]]).unwrap()
    }

    #[test]
    fn fit_is_bit_identical_to_per_column_descriptive_stats() {
        // Irregular values at several magnitudes, a constant column and a
        // column that is constant up to round-off.
        let d = Matrix::from_fn(1003, 4, |i, j| match j {
            0 => ((i * 7919) % 1009) as f64 * 0.137 - 61.3,
            1 => 2.5,
            2 => 1e6 + ((i * 31) % 17) as f64 * 1e-4,
            _ => 1.0 + if i % 2 == 0 { 1e-13 } else { 0.0 },
        });
        let s = StandardScaler::fit(&d).unwrap();
        for j in 0..4 {
            let col = d.col(j);
            let mean = descriptive::mean(&col).unwrap();
            let sd = descriptive::std_dev(&col).unwrap();
            let floor = mean.abs() * 1e-9 + 1e-12;
            let want_sd = if sd > floor { sd } else { 1.0 };
            assert_eq!(s.means()[j].to_bits(), mean.to_bits(), "mean {j}");
            assert_eq!(s.stds()[j].to_bits(), want_sd.to_bits(), "std {j}");
        }
        assert_eq!(s.stds()[1], 1.0, "constant column gets a unit scale");
    }

    #[test]
    fn transform_centers_and_scales() {
        let d = data();
        let s = StandardScaler::fit(&d).unwrap();
        let z = s.transform(&d).unwrap();
        let col0 = z.col(0);
        assert!(descriptive::mean(&col0).unwrap().abs() < 1e-12);
        assert!((descriptive::std_dev(&col0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_column_is_mean_shifted_only() {
        let d = data();
        let s = StandardScaler::fit(&d).unwrap();
        assert_eq!(s.stds()[1], 1.0);
        let z = s.transform(&d).unwrap();
        assert!(z.col(1).iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn roundtrip() {
        let d = data();
        let s = StandardScaler::fit(&d).unwrap();
        let z = s.transform(&d).unwrap();
        let back = s.inverse_transform(&z).unwrap();
        assert!((&back - &d).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn sample_roundtrip() {
        let d = data();
        let s = StandardScaler::fit(&d).unwrap();
        let z = s.transform_sample(&[25.0, 5.0]).unwrap();
        let back = s.inverse_transform_sample(&z).unwrap();
        assert!((back[0] - 25.0).abs() < 1e-12);
        assert!((back[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_checks() {
        let s = StandardScaler::fit(&data()).unwrap();
        assert!(s.transform(&Matrix::zeros(2, 3)).is_err());
        assert!(s.transform_sample(&[1.0]).is_err());
        assert!(s.inverse_transform(&Matrix::zeros(2, 3)).is_err());
        assert!(s.inverse_transform_sample(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn needs_two_rows() {
        assert!(StandardScaler::fit(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn getters_expose_fit() {
        let s = StandardScaler::fit(&data()).unwrap();
        assert_eq!(s.dim(), 2);
        assert!((s.means()[0] - 20.0).abs() < 1e-12);
        assert!((s.stds()[0] - 10.0).abs() < 1e-12);
    }
}
