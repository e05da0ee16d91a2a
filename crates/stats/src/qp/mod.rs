//! Quadratic-program solvers backing the kernel methods.
//!
//! Two specialized solvers, matched to the two QPs the paper's flow needs:
//!
//! - [`solve_box_band`]: projected gradient descent for kernel mean matching
//!   (Eq. 4 of the paper) — minimize `½βᵀKβ − κᵀβ` over the box
//!   `0 ≤ β_i ≤ B` intersected with the mean band `|mean(β) − 1| ≤ ε`.
//! - [`SmoSolver`]: sequential minimal optimization for the ν-one-class SVM
//!   dual — minimize `½αᵀQα` over the simplex-box `Σα = 1`,
//!   `0 ≤ α_i ≤ C`.
//!
//! Both operate on dense [`Matrix`](sidefp_linalg::Matrix) Gram matrices,
//! which is the right trade-off at the problem sizes of this workspace
//! (tens to a few thousand samples).

mod projected_gradient;
mod smo;

pub use projected_gradient::{
    solve_box_band, solve_box_band_detailed, solve_box_band_strict, BoxBandConfig, BoxBandSolution,
};
pub use smo::{SmoConfig, SmoSolution, SmoSolver, WorkingSetQ};
