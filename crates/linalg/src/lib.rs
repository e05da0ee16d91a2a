//! Dense linear algebra substrate for the `sidefp` workspace.
//!
//! This crate provides exactly the numerical kernels the golden chip-free
//! side-channel fingerprinting flow needs, implemented from scratch with no
//! external dependencies:
//!
//! - [`Matrix`]: a dense, row-major, `f64` matrix with the usual arithmetic,
//! - [`Lu`]: LU factorization with partial pivoting (solve / determinant /
//!   inverse),
//! - [`Cholesky`]: factorization of symmetric positive-definite matrices
//!   (multivariate-normal sampling, normal equations),
//! - [`Qr`]: Householder QR (stable least squares for MARS),
//! - [`SymmetricEigen`]: cyclic Jacobi eigendecomposition of symmetric
//!   matrices (PCA).
//!
//! # Example
//!
//! ```
//! use sidefp_linalg::Matrix;
//!
//! # fn main() -> Result<(), sidefp_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = vec![1.0, 2.0];
//! let x = a.cholesky()?.solve(&b)?;
//! let r = &a.matvec(&x)?;
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Triangular solves and Householder updates read far more clearly with
// explicit index loops than with iterator adaptors.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod error;
pub mod gemm;
mod lu;
mod matrix;
mod qr;
pub mod recover;
pub mod vecops;
mod workspace;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::{Qr, QrBuilder};
pub use recover::{cholesky_ridged, Escalation, Recovered};
pub use workspace::Workspace;
