use sidefp_linalg::{vecops, Matrix};

use crate::StatsError;

/// A positive-definite kernel function on `ℝᵈ`.
///
/// Kernels are shared between the one-class SVM (trusted-boundary learning)
/// and kernel mean matching (covariate-shift correction). The Gaussian RBF
/// is the one kernel every pipeline uses.
///
/// # Example
///
/// ```
/// use sidefp_stats::Kernel;
///
/// let k = Kernel::Rbf { gamma: 0.5 };
/// assert!((k.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
/// assert!(k.eval(&[0.0], &[2.0]) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Gaussian RBF: `exp(−γ‖x − y‖²)`.
    Rbf {
        /// Inverse squared length scale; must be positive.
        gamma: f64,
    },
}

impl Default for Kernel {
    /// RBF with unit `γ`; callers typically override `γ` with
    /// [`Kernel::rbf_median_heuristic`].
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

impl Kernel {
    /// Evaluates the kernel on a pair of points.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        let Kernel::Rbf { gamma } = *self;
        vecops::exp(-gamma * vecops::squared_distance(x, y))
    }

    /// Validates the kernel's hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for a non-positive or
    /// non-finite `γ`.
    pub fn validate(&self) -> Result<(), StatsError> {
        let Kernel::Rbf { gamma } = *self;
        if gamma > 0.0 && gamma.is_finite() {
            Ok(())
        } else {
            Err(StatsError::InvalidParameter {
                name: "gamma",
                reason: format!("must be positive and finite, got {gamma}"),
            })
        }
    }

    /// Gram matrix `K[i][j] = k(a_i, b_j)` for rows of `a` and `b`.
    ///
    /// Delegates to the shared parallel engine in [`crate::GramMatrix`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the column counts differ.
    pub fn gram(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, StatsError> {
        crate::GramMatrix::cross(*self, a, b)
    }

    /// Symmetric Gram matrix of a single dataset (exploits symmetry).
    ///
    /// Delegates to the shared parallel engine in [`crate::GramMatrix`].
    pub fn gram_symmetric(&self, a: &Matrix) -> Matrix {
        crate::GramMatrix::symmetric(*self, a).into_matrix()
    }

    /// The median heuristic for the RBF bandwidth: `γ = 1 / (2·median²)`
    /// where the median is over the distances between distinct pairs of
    /// `data` rows, leaving out pairs at distance zero.
    ///
    /// Only the strict upper triangle of squared distances is formed,
    /// packed, in parallel row blocks, never the `n × n` matrix; its
    /// entries equal [`crate::gram::pairwise_squared_distances`]'s bit for
    /// bit, so `γ` equals
    /// [`Kernel::rbf_median_heuristic_from_sq_distances`] on that matrix.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] for fewer than two rows.
    /// - [`StatsError::DegenerateData`] if all points coincide.
    pub fn rbf_median_heuristic(data: &Matrix) -> Result<Kernel, StatsError> {
        let n = data.nrows();
        if n < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: n });
        }
        rbf_from_upper_triangle(crate::gram::packed_squared_distances(data))
    }

    /// [`Kernel::rbf_median_heuristic`] on an already-computed matrix of
    /// pairwise squared distances (see
    /// [`crate::gram::pairwise_squared_distances`]). Callers that also
    /// need a Gram matrix over the same rows can compute the distances
    /// once and feed both this and
    /// [`crate::GramMatrix::from_squared_distances`]. Only the strict
    /// upper triangle is read; an entry that is not positive counts as a
    /// zero distance.
    ///
    /// # Errors
    ///
    /// - [`StatsError::InsufficientData`] for fewer than two rows.
    /// - [`StatsError::DegenerateData`] if all points coincide.
    pub fn rbf_median_heuristic_from_sq_distances(d2: &Matrix) -> Result<Kernel, StatsError> {
        let n = d2.nrows();
        if n < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: n });
        }
        let mut sq: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            let row = &d2.row(i)[(i + 1)..];
            sq.extend(row.iter().map(|&v| if v > 0.0 { v } else { 0.0 }));
        }
        rbf_from_upper_triangle(sq)
    }
}

/// `γ = 1 / (2·median²)` over the positive entries of `sq`, a packed
/// triangle of squared distances whose every entry is `+0.0` or positive
/// (the squared-distance epilogue clamps at zero, and a NaN clamps to
/// zero too).
///
/// Zeros are counted, not filtered out: they sort below every positive
/// entry, so the order statistic of rank `lo` among the positives sits at
/// index `zeros + lo` of the whole slice. The median of distances is
/// recovered from the *squared* distances: squaring preserves order, so
/// the two middle order statistics are selected first and square roots
/// taken after — the interpolation [`crate::descriptive::median`] applies,
/// without an O(n²) pass of square roots. The O(n²) select replaces a
/// full sort; ties make the selected *positions* partition-dependent, but
/// the selected *values* are the order statistics either way.
fn rbf_from_upper_triangle(mut sq: Vec<f64>) -> Result<Kernel, StatsError> {
    let zeros = sq.iter().filter(|&&v| v == 0.0).count();
    let positives = sq.len() - zeros;
    if positives == 0 {
        return Err(StatsError::DegenerateData(
            "all points coincide; median heuristic undefined".into(),
        ));
    }
    let pos = 0.5 * (positives - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, lo_val, rest) = sq.select_nth_unstable_by(zeros + lo, f64::total_cmp);
    let lo_val = *lo_val;
    let hi_val = if hi > lo {
        rest.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        lo_val
    };
    let med = lo_val.sqrt() * (1.0 - frac) + hi_val.sqrt() * frac;
    Ok(Kernel::Rbf {
        gamma: 1.0 / (2.0 * med * med),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rbf_properties() {
        let k = Kernel::Rbf { gamma: 2.0 };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-15);
        // The vectorized exp agrees with libm to ~3e-13 relative, not to
        // the last ulp; 1e-12 is the documented contract tolerance.
        let v = k.eval(&[0.0], &[1.0]);
        assert!((v - (-2.0_f64).exp()).abs() < 1e-12);
        // Symmetry.
        assert_eq!(k.eval(&[0.3], &[1.7]), k.eval(&[1.7], &[0.3]));
    }

    #[test]
    fn validate_catches_bad_parameters() {
        assert!(Kernel::Rbf { gamma: 0.0 }.validate().is_err());
        assert!(Kernel::Rbf { gamma: -1.0 }.validate().is_err());
        assert!(Kernel::Rbf { gamma: f64::NAN }.validate().is_err());
        assert!(Kernel::Rbf {
            gamma: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(Kernel::default().validate().is_ok());
    }

    #[test]
    fn gram_matrix_shapes_and_symmetry() {
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let k = Kernel::default();
        let g = k.gram_symmetric(&a);
        assert_eq!(g.shape(), (3, 3));
        assert!(g.is_symmetric(1e-15));
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-15);
        }
        let b = Matrix::from_rows(&[&[0.5, 0.5]]).unwrap();
        let cross = k.gram(&a, &b).unwrap();
        assert_eq!(cross.shape(), (3, 1));
        assert!(k.gram(&a, &Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn gram_matches_symmetric_gram() {
        let a = Matrix::from_rows(&[&[0.1, 0.2], &[0.3, -0.1]]).unwrap();
        let k = Kernel::Rbf { gamma: 0.7 };
        let g1 = k.gram(&a, &a).unwrap();
        let g2 = k.gram_symmetric(&a);
        assert!((&g1 - &g2).unwrap().max_abs() < 1e-15);
    }

    #[test]
    fn median_heuristic_scales_with_data() {
        // Points spaced by 1 → median distance 1ish → gamma ~ 0.5.
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]).unwrap();
        let Kernel::Rbf { gamma } = Kernel::rbf_median_heuristic(&a).unwrap();
        assert!(gamma > 0.2 && gamma < 0.6, "gamma {gamma}");
        // Scaling the data by 10 shrinks gamma by 100.
        let b = Matrix::from_rows(&[&[0.0], &[10.0], &[20.0]]).unwrap();
        let Kernel::Rbf { gamma } = Kernel::rbf_median_heuristic(&b).unwrap();
        assert!(gamma > 0.002 && gamma < 0.006, "gamma {gamma}");
    }

    #[test]
    fn median_heuristic_degenerate_inputs() {
        let one = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(Kernel::rbf_median_heuristic(&one).is_err());
        let same = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        assert!(Kernel::rbf_median_heuristic(&same).is_err());
    }

    #[test]
    fn median_heuristic_errors_are_typed() {
        for n in [0, 1] {
            for data in [Matrix::zeros(n, 3), Matrix::zeros(n, 0)] {
                assert!(matches!(
                    Kernel::rbf_median_heuristic(&data),
                    Err(StatsError::InsufficientData { needed: 2, got }) if got == n
                ));
            }
        }
        // All points coincide: every packed entry is zero, at any width
        // (including none) and across several parts of the tile queue.
        for threads in [1, 2] {
            for (n, d) in [(2, 1), (5, 3), (300, 4), (40, 0)] {
                let data = Matrix::from_fn(n, d, |_, j| 0.25 * j as f64 - 1.0);
                let got =
                    sidefp_parallel::with_threads(threads, || Kernel::rbf_median_heuristic(&data));
                assert!(
                    matches!(got, Err(StatsError::DegenerateData(_))),
                    "n={n} d={d} threads={threads}: {got:?}"
                );
            }
        }
    }

    /// The median heuristic as the full distance matrix gave it: the
    /// positive strict-upper-triangle entries, sorted, and the same
    /// interpolation between the two middle order statistics.
    fn reference_gamma(data: &Matrix) -> f64 {
        let d2 = crate::gram::pairwise_squared_distances(data);
        let mut sq: Vec<f64> = (0..data.nrows())
            .flat_map(|i| d2.row(i)[i + 1..].to_vec())
            .filter(|v| *v > 0.0)
            .collect();
        sq.sort_by(f64::total_cmp);
        let pos = 0.5 * (sq.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        let med = sq[lo].sqrt() * (1.0 - frac) + sq[hi].sqrt() * frac;
        1.0 / (2.0 * med * med)
    }

    /// Row counts at the GEMM's 64-row stripe edges.
    const BLOCK_EDGES: [usize; 5] = [63, 64, 65, 128, 129];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The packed-triangle heuristic returns the full-matrix `γ` bit
        /// for bit at 1 and 2 workers: continuous rows, integer-grid rows
        /// (many tied distances) and rows duplicated in place (zero
        /// distances between distinct rows).
        #[test]
        fn median_heuristic_matches_the_full_matrix_bit_for_bit(
            n_pick in 0usize..400,
            dim in 1usize..13,
            style in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let n = if n_pick < 300 { 2 + n_pick % 299 } else { BLOCK_EDGES[n_pick % 5] };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut data = Matrix::from_fn(n, dim, |_, _| match style {
                1 => f64::from(rng.random_range(0..3_u8)),
                _ => rng.random::<f64>() * 4.0 - 2.0,
            });
            if style == 2 {
                for i in 1..n {
                    if rng.random::<f64>() < 0.3 {
                        let src = data.row(rng.random_range(0..i)).to_vec();
                        data.row_mut(i).copy_from_slice(&src);
                    }
                }
            }
            prop_assume!(data.as_slice().chunks(dim.max(1)).any(|r| r != data.row(0)));
            let want = reference_gamma(&data).to_bits();
            for threads in [1, 2] {
                let Kernel::Rbf { gamma } =
                    sidefp_parallel::with_threads(threads, || Kernel::rbf_median_heuristic(&data))
                        .unwrap();
                prop_assert_eq!(gamma.to_bits(), want, "n={} d={} threads={}", n, dim, threads);
                let d2 = crate::gram::pairwise_squared_distances(&data);
                let Kernel::Rbf { gamma } =
                    Kernel::rbf_median_heuristic_from_sq_distances(&d2).unwrap();
                prop_assert_eq!(gamma.to_bits(), want, "from the matrix, n={}", n);
            }
        }
    }
}
