//! Two-sample testing via maximum mean discrepancy (MMD).
//!
//! Answers "do these two populations come from the same distribution?"
//! with a permutation p-value — the quantitative version of the paper's
//! visual Figure-4 overlap argument. Used to certify that a synthetic
//! trusted population (S5) is statistically indistinguishable from the
//! measured Trojan-free devices, and that the Trojan clusters are not.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_linalg::Matrix;

use crate::{GramMatrix, Kernel, StatsError};

/// Result of a permutation MMD test.
#[derive(Debug, Clone, PartialEq)]
pub struct MmdTest {
    /// The observed (biased, V-statistic) squared MMD.
    pub statistic: f64,
    /// Permutation p-value: fraction of label permutations with an MMD at
    /// least as large as observed.
    pub p_value: f64,
    /// Number of permutations used.
    pub permutations: usize,
}

/// Biased squared-MMD V-statistic between rows `a_idx` and `b_idx` of a
/// precomputed joint Gram matrix.
fn mmd_sq(gram: &GramMatrix, a_idx: &[usize], b_idx: &[usize]) -> f64 {
    let na = a_idx.len() as f64;
    let nb = b_idx.len() as f64;
    let aa = gram.block_sum(a_idx, a_idx);
    let bb = gram.block_sum(b_idx, b_idx);
    let ab = gram.block_sum(a_idx, b_idx);
    aa / (na * na) + bb / (nb * nb) - 2.0 * ab / (na * nb)
}

/// Permutation two-sample MMD test between the rows of `a` and `b`.
///
/// The kernel defaults to the RBF median heuristic on the pooled sample
/// when `kernel` is `None`. The test statistic is the biased V-statistic;
/// the null distribution is approximated by `permutations` random label
/// reshuffles (seeded, deterministic).
///
/// # Errors
///
/// - [`StatsError::InsufficientData`] if either sample has fewer than two
///   rows, or `permutations == 0`.
/// - [`StatsError::DimensionMismatch`] on column mismatch.
///
/// # Example
///
/// ```
/// use sidefp_linalg::Matrix;
/// use sidefp_stats::mmd_test::mmd_permutation_test;
///
/// # fn main() -> Result<(), sidefp_stats::StatsError> {
/// let a = Matrix::from_fn(30, 1, |i, _| (i % 10) as f64 * 0.1);
/// let b = Matrix::from_fn(30, 1, |i, _| (i % 10) as f64 * 0.1 + 5.0);
/// let test = mmd_permutation_test(&a, &b, None, 200, 7)?;
/// assert!(test.p_value < 0.05); // shifted by 5: clearly different
/// # Ok(())
/// # }
/// ```
pub fn mmd_permutation_test(
    a: &Matrix,
    b: &Matrix,
    kernel: Option<Kernel>,
    permutations: usize,
    seed: u64,
) -> Result<MmdTest, StatsError> {
    if a.nrows() < 2 || b.nrows() < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: a.nrows().min(b.nrows()),
        });
    }
    if a.ncols() != b.ncols() {
        return Err(StatsError::DimensionMismatch {
            expected: a.ncols(),
            got: b.ncols(),
        });
    }
    if permutations == 0 {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }

    let pooled = a.vstack(b)?;
    let gram = match kernel {
        Some(k) => {
            k.validate()?;
            GramMatrix::symmetric(k, &pooled)
        }
        None => {
            // One GEMM-form distance pass serves both the median-heuristic
            // bandwidth and the RBF Gram — previously each ran its own
            // O(n²·d) pairwise sweep over the pooled sample.
            let d2 = crate::gram::pairwise_squared_distances(&pooled);
            let k = Kernel::rbf_median_heuristic_from_sq_distances(&d2)?;
            GramMatrix::from_squared_distances(k, d2)?
        }
    };

    let na = a.nrows();
    let n = pooled.nrows();
    let a_idx: Vec<usize> = (0..na).collect();
    let b_idx: Vec<usize> = (na..n).collect();
    let statistic = mmd_sq(&gram, &a_idx, &b_idx);

    // Each permutation shuffles its own identity vector with an RNG
    // stream forked from the seed, so the null distribution is a pure
    // function of `seed` — independent of both evaluation order and
    // thread count.
    let exceeded = sidefp_parallel::map_indexed(permutations, |p| {
        let mut rng = StdRng::seed_from_u64(sidefp_parallel::fork_seed(seed, p as u64));
        let mut indices: Vec<usize> = (0..n).collect();
        // Fisher–Yates shuffle, then split at na.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            indices.swap(i, j);
        }
        mmd_sq(&gram, &indices[..na], &indices[na..]) >= statistic
    });
    let at_least = exceeded.into_iter().filter(|e| *e).count();
    // Add-one smoothing keeps the p-value away from an impossible 0.
    let p_value = (at_least + 1) as f64 / (permutations + 1) as f64;

    Ok(MmdTest {
        statistic,
        p_value,
        permutations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultivariateNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob(mean: f64, n: usize, seed: u64) -> Matrix {
        let mvn = MultivariateNormal::independent(vec![mean, mean], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_matrix(&mut rng, n)
    }

    #[test]
    fn same_distribution_is_not_rejected() {
        let a = blob(0.0, 40, 1);
        let b = blob(0.0, 40, 2);
        let test = mmd_permutation_test(&a, &b, None, 200, 3).unwrap();
        assert!(
            test.p_value >= 0.01,
            "same-distribution p-value {}",
            test.p_value
        );
    }

    #[test]
    fn shifted_distribution_is_rejected() {
        let a = blob(0.0, 40, 4);
        let b = blob(2.0, 40, 5);
        let test = mmd_permutation_test(&a, &b, None, 200, 6).unwrap();
        assert!(test.p_value < 0.01, "p-value {}", test.p_value);
        assert!(test.statistic > 0.0);
    }

    #[test]
    fn scale_difference_is_rejected() {
        let mvn_wide = MultivariateNormal::independent(vec![0.0, 0.0], &[3.0, 3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let a = blob(0.0, 50, 8);
        let b = mvn_wide.sample_matrix(&mut rng, 50);
        let test = mmd_permutation_test(&a, &b, None, 200, 9).unwrap();
        assert!(test.p_value < 0.05, "p-value {}", test.p_value);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = blob(0.0, 20, 10);
        let b = blob(0.5, 20, 11);
        let t1 = mmd_permutation_test(&a, &b, None, 100, 12).unwrap();
        let t2 = mmd_permutation_test(&a, &b, None, 100, 12).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn identical_at_any_thread_count() {
        let a = blob(0.0, 25, 20);
        let b = blob(0.7, 25, 21);
        let reference = sidefp_parallel::with_threads(1, || {
            mmd_permutation_test(&a, &b, None, 80, 22).unwrap()
        });
        for threads in [2, 8] {
            let got = sidefp_parallel::with_threads(threads, || {
                mmd_permutation_test(&a, &b, None, 80, 22).unwrap()
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn explicit_kernel_is_honored() {
        let a = blob(0.0, 20, 13);
        let b = blob(1.0, 20, 14);
        let test = mmd_permutation_test(&a, &b, Some(Kernel::Rbf { gamma: 0.5 }), 100, 15).unwrap();
        assert_eq!(test.permutations, 100);
        assert!(mmd_permutation_test(&a, &b, Some(Kernel::Rbf { gamma: -1.0 }), 100, 15).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = blob(0.0, 20, 16);
        let one = blob(0.0, 1, 17);
        assert!(mmd_permutation_test(&one, &a, None, 100, 0).is_err());
        assert!(mmd_permutation_test(&a, &one, None, 100, 0).is_err());
        assert!(mmd_permutation_test(&a, &a, None, 0, 0).is_err());
        let wide = Matrix::zeros(10, 3);
        assert!(mmd_permutation_test(&a, &wide, None, 100, 0).is_err());
    }
}
