//! Data-driven selection of the trusted boundary's kernel resolution.
//!
//! The paper leaves the 1-class SVM's hyper-parameters unspecified. This
//! module implements the selection rule our calibration converged on, as a
//! reusable procedure: **pick the tightest kernel (largest γ) whose
//! boundary still generalizes to held-out draws of the same population.**
//! A boundary that rejects fresh i.i.d. samples of its own training
//! distribution is overfitted to the sample; a boundary that accepts far
//! more than `1 − ν` is looser than requested.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_linalg::Matrix;
use sidefp_stats::DetectionLabel;

use crate::boundary::TrustedBoundary;
use crate::config::BoundaryConfig;
use crate::CoreError;

/// Outcome of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// The selected γ.
    pub gamma: f64,
    /// Hold-out acceptance rate of the selected boundary.
    pub holdout_acceptance: f64,
    /// Acceptance rate per candidate, aligned with the input grid.
    pub grid_acceptance: Vec<f64>,
}

/// Tunes γ over a candidate grid by hold-out validation and returns the
/// boundary retrained on the full population with the chosen γ.
///
/// The population is split (seeded, deterministic) into a training part
/// and a `holdout_fraction` part; for each candidate γ a boundary is
/// fitted on the training part and scored by its acceptance rate on the
/// hold-out. The largest γ whose acceptance stays above
/// `1 − ν − slack` wins (slack: 2 standard errors of the acceptance
/// estimate).
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] for an empty grid, a non-positive
///   candidate, or `holdout_fraction` outside (0, 0.5\].
/// - Training errors from the boundary fits.
///
/// # Example
///
/// ```
/// use sidefp_core::config::BoundaryConfig;
/// use sidefp_core::tuning::tune_gamma;
/// use sidefp_linalg::Matrix;
///
/// # fn main() -> Result<(), sidefp_core::CoreError> {
/// let population = Matrix::from_fn(400, 2, |i, j| {
///     ((i * 37 + j * 11) % 97) as f64 / 97.0 + (i % 7) as f64 * 0.1
/// });
/// let (boundary, report) = tune_gamma(
///     "tuned",
///     &population,
///     &[0.1, 0.5, 2.0],
///     &BoundaryConfig::default(),
///     0.25,
///     7,
/// )?;
/// assert!(report.holdout_acceptance > 0.8);
/// let center = population.column_means();
/// assert!(boundary.decision(&center)? > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn tune_gamma(
    name: &'static str,
    population: &Matrix,
    gamma_grid: &[f64],
    base: &BoundaryConfig,
    holdout_fraction: f64,
    seed: u64,
) -> Result<(TrustedBoundary, TuningReport), CoreError> {
    if gamma_grid.is_empty() {
        return Err(CoreError::InvalidConfig {
            name: "gamma_grid",
            reason: "at least one candidate required".into(),
        });
    }
    if let Some(bad) = gamma_grid.iter().find(|g| !(**g > 0.0 && g.is_finite())) {
        return Err(CoreError::InvalidConfig {
            name: "gamma_grid",
            reason: format!("candidates must be positive and finite, got {bad}"),
        });
    }
    if !(holdout_fraction > 0.0 && holdout_fraction <= 0.5) {
        return Err(CoreError::InvalidConfig {
            name: "holdout_fraction",
            reason: format!("must be in (0, 0.5], got {holdout_fraction}"),
        });
    }
    let n = population.nrows();
    let holdout_size = ((n as f64 * holdout_fraction) as usize).max(1);
    // The SVM needs a handful of training points to define a region.
    if n < holdout_size + 4 {
        return Err(CoreError::InvalidConfig {
            name: "population",
            reason: format!("{n} rows cannot support a hold-out of {holdout_size}"),
        });
    }

    // Seeded split via index shuffle (Fisher–Yates on indices).
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a11e);
    for i in (1..n).rev() {
        let j = rand::RngExt::random_range(&mut rng, 0..=i);
        indices.swap(i, j);
    }
    let (holdout_idx, train_idx) = indices.split_at(holdout_size);
    let train = population.select_rows(train_idx);
    let holdout = population.select_rows(holdout_idx);

    // Acceptance floor: 1 − ν minus two standard errors of the estimate.
    let target = 1.0 - base.nu;
    let standard_error = (target * (1.0 - target) / holdout_size as f64).sqrt();
    let floor = target - 2.0 * standard_error.max(0.01);

    let mut grid_acceptance = Vec::with_capacity(gamma_grid.len());
    let mut best: Option<(f64, f64)> = None; // (gamma, acceptance)
    for &gamma in gamma_grid {
        let candidate = TrustedBoundary::fit(
            name,
            &train,
            &BoundaryConfig {
                gamma: Some(gamma),
                ..*base
            },
            seed,
        )?;
        let accepted = candidate
            .classify_rows(&holdout)?
            .into_iter()
            .filter(|l| *l == DetectionLabel::TrojanFree)
            .count();
        let acceptance = accepted as f64 / holdout_size as f64;
        grid_acceptance.push(acceptance);
        let qualifies = acceptance >= floor;
        let improves = match best {
            None => true,
            // Prefer the largest qualifying gamma; fall back to the best
            // acceptance if nothing qualifies.
            Some((g, a)) => {
                if qualifies {
                    a < floor || gamma > g
                } else {
                    a < floor && acceptance > a
                }
            }
        };
        if improves {
            best = Some((gamma, acceptance));
        }
    }
    let (gamma, holdout_acceptance) = best.expect("grid is non-empty");

    // Retrain on the full population with the winner.
    let boundary = TrustedBoundary::fit(
        name,
        population,
        &BoundaryConfig {
            gamma: Some(gamma),
            ..*base
        },
        seed,
    )?;
    Ok((
        boundary,
        TuningReport {
            gamma,
            holdout_acceptance,
            grid_acceptance,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_stats::MultivariateNormal;

    fn blob(n: usize, seed: u64) -> Matrix {
        let mvn = MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        mvn.sample_matrix(&mut rng, n)
    }

    #[test]
    fn selects_a_generalizing_gamma() {
        let population = blob(600, 1);
        let (boundary, report) = tune_gamma(
            "t",
            &population,
            &[0.05, 0.2, 0.8, 3.0, 12.0],
            &BoundaryConfig::default(),
            0.25,
            1,
        )
        .unwrap();
        // The winner's hold-out acceptance respects the floor.
        assert!(
            report.holdout_acceptance >= 0.85,
            "acceptance {}",
            report.holdout_acceptance
        );
        // Over-tight gammas accept less on hold-out than the winner.
        let max_acc = report
            .grid_acceptance
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max);
        assert!(report.grid_acceptance.last().unwrap() <= &max_acc);
        // The retrained boundary accepts the population center.
        assert!(boundary.decision(&[0.0, 0.0]).unwrap() > 0.0);
    }

    #[test]
    fn prefers_tighter_boundaries_when_equivalent() {
        let population = blob(600, 2);
        let (_, report) = tune_gamma(
            "t",
            &population,
            &[0.05, 0.2],
            &BoundaryConfig::default(),
            0.25,
            2,
        )
        .unwrap();
        // If both qualify, the larger gamma is selected.
        if report.grid_acceptance.iter().all(|a| *a >= 0.9) {
            assert_eq!(report.gamma, 0.2);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let population = blob(300, 3);
        let grid = [0.1, 1.0];
        let (_, a) =
            tune_gamma("t", &population, &grid, &BoundaryConfig::default(), 0.3, 9).unwrap();
        let (_, b) =
            tune_gamma("t", &population, &grid, &BoundaryConfig::default(), 0.3, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_inputs() {
        let population = blob(100, 4);
        let base = BoundaryConfig::default();
        assert!(tune_gamma("t", &population, &[], &base, 0.25, 0).is_err());
        assert!(tune_gamma("t", &population, &[-1.0], &base, 0.25, 0).is_err());
        assert!(tune_gamma("t", &population, &[1.0], &base, 0.0, 0).is_err());
        assert!(tune_gamma("t", &population, &[1.0], &base, 0.9, 0).is_err());
        let tiny = blob(3, 5);
        assert!(tune_gamma("t", &tiny, &[1.0], &base, 0.5, 0).is_err());
    }
}
