//! Quadratic-program solvers backing the kernel methods.
//!
//! Two specialized solvers, matched to the two QPs the paper's flow needs:
//!
//! - [`solve_box_band`]: an exact primal active-set solver for kernel mean
//!   matching (Eq. 4 of the paper) — minimize `½βᵀ(K + λI)β − κᵀβ` over the
//!   box `0 ≤ β_i ≤ B` intersected with the mean band `|mean(β) − 1| ≤ ε`,
//!   with Cholesky factors of the free block updated row by row.
//! - [`SmoSolver`]: sequential minimal optimization for the ν-one-class SVM
//!   dual — minimize `½αᵀQα` over the simplex-box `Σα = 1`,
//!   `0 ≤ α_i ≤ C` — from a sparse start with shrinking, reading `Q` by
//!   rows through [`WorkingSetQ`] (a dense matrix, or
//!   [`KernelRows`](crate::KernelRows) computed on first use).
//!
//! The box-band solver works on a dense
//! [`Matrix`](sidefp_linalg::Matrix) Gram, the right trade-off at KMM's
//! sizes (about a hundred samples).

mod active_set;
mod smo;

pub use active_set::{solve_box_band, BoxBandConfig, BoxBandSolution};
pub use smo::{SmoConfig, SmoSolution, SmoSolver, WorkingSetQ};
