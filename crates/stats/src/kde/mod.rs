//! Kernel density estimation and synthetic-sample generation.
//!
//! Implements the paper's tail-modeling step (§2.5, Eq. 5–9): a
//! non-parametric Epanechnikov KDE over the trusted fingerprint population,
//! optionally with **adaptive** per-observation bandwidths that widen at the
//! distribution tails, plus a sampler that generates an arbitrarily large
//! synthetic population from the fitted density.
//!
//! Data is standardized internally (KDE is scale-sensitive); samples are
//! mapped back to original units, so callers never see the z-space.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sidefp_linalg::Matrix;
//! use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = Matrix::from_rows(&[
//!     &[0.0, 0.0], &[0.2, 0.1], &[-0.1, 0.2], &[0.1, -0.2],
//!     &[0.0, 0.3], &[-0.2, -0.1], &[0.3, 0.0], &[-0.3, 0.1],
//! ])?;
//! let kde = AdaptiveKde::fit(&data, &KdeConfig::default())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let synthetic = kde.sample_matrix(&mut rng, 1000);
//! assert_eq!(synthetic.shape(), (1000, 2));
//! # Ok(())
//! # }
//! ```

mod adaptive;
mod kernel;

pub use adaptive::{AdaptiveKde, KdeConfig};
pub use kernel::Epanechnikov;
