//! Bounded retry-with-escalating-ridge recovery for factorizations.
//!
//! Gram and covariance matrices assembled from noisy (or sanitized) silicon
//! measurements are positive definite *in theory* but can lose definiteness
//! to rounding, duplicate rows or near-collinear features. Rather than
//! aborting the whole lot, the helpers here retry the factorization with an
//! escalating diagonal ridge `τ_k = initial · growth^k · scale(A)` — the
//! standard jitter trick — and report how many escalations were needed so
//! callers can surface the rescue instead of hiding it.
//!
//! The first attempt always runs on the unmodified matrix, so healthy inputs
//! produce bit-identical results to calling the factorization directly.

use crate::{Cholesky, LinalgError, Matrix};

/// Escalation policy for ridge-jitter retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Escalation {
    /// Retries after the clean attempt (total attempts = `retries + 1`).
    pub retries: usize,
    /// First ridge, relative to the matrix scale.
    pub initial: f64,
    /// Multiplicative growth of the ridge per retry.
    pub growth: f64,
}

impl Default for Escalation {
    /// Four retries from `1e-10·scale` to `1e-4·scale` — wide enough to fix
    /// rounding-level indefiniteness, far too small to mask real structure.
    fn default() -> Self {
        Escalation {
            retries: 4,
            initial: 1e-10,
            growth: 100.0,
        }
    }
}

/// A factorization that may have needed ridge escalation.
#[derive(Debug, Clone)]
pub struct Recovered<T> {
    /// The successful factorization.
    pub value: T,
    /// Ridge escalations used; `0` means the clean matrix factorized.
    pub retries: usize,
    /// The ridge added to the diagonal (`0.0` on a clean success).
    pub ridge: f64,
}

fn ridged(a: &Matrix, tau: f64) -> Matrix {
    let mut m = a.clone();
    for i in 0..m.nrows().min(m.ncols()) {
        m[(i, i)] += tau;
    }
    m
}

fn scale_of(a: &Matrix) -> f64 {
    a.max_abs().max(1.0)
}

/// Cholesky with bounded ridge-jitter retries.
///
/// # Errors
///
/// Returns the *first* attempt's error if every escalation fails (shape
/// errors never retry; only [`LinalgError::NotPositiveDefinite`] does).
pub fn cholesky_ridged(
    a: &Matrix,
    policy: &Escalation,
) -> Result<Recovered<Cholesky>, LinalgError> {
    let first = match Cholesky::new(a) {
        Ok(c) => {
            return Ok(Recovered {
                value: c,
                retries: 0,
                ridge: 0.0,
            })
        }
        Err(e @ LinalgError::NotPositiveDefinite) => e,
        Err(e) => return Err(e),
    };
    let scale = scale_of(a);
    let mut tau = policy.initial * scale;
    for k in 1..=policy.retries {
        if let Ok(c) = Cholesky::new(&ridged(a, tau)) {
            return Ok(Recovered {
                value: c,
                retries: k,
                ridge: tau,
            });
        }
        tau *= policy.growth;
    }
    Err(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_matrix_is_untouched() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let rec = cholesky_ridged(&a, &Escalation::default()).unwrap();
        assert_eq!(rec.retries, 0);
        assert_eq!(rec.ridge, 0.0);
        // Identical to the direct factorization.
        let direct = a.cholesky().unwrap();
        let x = rec.value.solve(&[1.0, 2.0]).unwrap();
        let y = direct.solve(&[1.0, 2.0]).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn rounding_level_indefiniteness_is_rescued() {
        // PSD rank-1 matrix nudged just below definiteness.
        let mut a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        a[(1, 1)] -= 1e-13;
        assert!(a.cholesky().is_err());
        let rec = cholesky_ridged(&a, &Escalation::default()).unwrap();
        assert!(rec.retries >= 1);
        assert!(rec.ridge > 0.0);
    }

    #[test]
    fn strongly_indefinite_matrix_still_fails() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            cholesky_ridged(&a, &Escalation::default()),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn shape_errors_never_retry() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky_ridged(&a, &Escalation::default()),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
