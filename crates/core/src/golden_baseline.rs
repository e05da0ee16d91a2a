//! The golden-chip baseline (reference \[12\] of the paper).
//!
//! Classical statistical side-channel fingerprinting: the trusted region is
//! learned from the measured fingerprints of actual golden (Trojan-free)
//! chips. The paper uses this method's perfect separation as the anchor
//! that its golden-free boundaries approach; we report it as an extra
//! Table-1 row.

use crate::boundary::TrustedBoundary;
use crate::config::BoundaryConfig;
use crate::dataset::DuttPopulation;
use crate::report::Table1Row;
use crate::CoreError;

/// Trains the golden-chip boundary on the Trojan-free devices' measured
/// fingerprints and evaluates it on the full population, recording the
/// `boundary.golden` fit span and any SVM rescues into `obs`.
///
/// # Errors
///
/// Propagates boundary training and classification errors.
pub fn run_observed(
    population: &DuttPopulation,
    config: &BoundaryConfig,
    seed: u64,
    obs: &sidefp_obs::RunContext,
) -> Result<(TrustedBoundary, Table1Row), CoreError> {
    let golden = population.free_fingerprints();
    let boundary = TrustedBoundary::fit_observed("golden", &golden, config, seed ^ 0x601d, obs)?;
    let counts = boundary.evaluate(population)?;
    Ok((
        boundary,
        Table1Row {
            dataset: "golden",
            counts,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_linalg::Matrix;
    use sidefp_stats::{DetectionLabel, MultivariateNormal};

    #[test]
    fn golden_boundary_separates_synthetic_population() {
        // 30 free devices near origin, 60 infested shifted by 5 sigma.
        let mut rng = StdRng::seed_from_u64(3);
        let free = MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0])
            .unwrap()
            .sample_matrix(&mut rng, 30);
        let infested = MultivariateNormal::independent(vec![5.0, 5.0], &[1.0, 1.0])
            .unwrap()
            .sample_matrix(&mut rng, 60);
        let fps = free.vstack(&infested).unwrap();
        let mut labels = vec![DetectionLabel::TrojanFree; 30];
        labels.extend(vec![DetectionLabel::TrojanInfested; 60]);
        let mut variants = vec!["free"; 30];
        variants.extend(vec!["amplitude"; 60]);
        let pop = DuttPopulation::new(fps, Matrix::zeros(90, 1), labels, variants).unwrap();

        let (boundary, row) = run_observed(
            &pop,
            &BoundaryConfig::default(),
            1,
            &sidefp_obs::RunContext::new(),
        )
        .unwrap();
        assert_eq!(boundary.name(), "golden");
        assert_eq!(row.dataset, "golden");
        // No missed Trojans; few (ν-governed) false alarms on training data.
        assert_eq!(row.counts.false_positives(), 0);
        assert!(row.counts.false_negatives() <= 4, "{}", row.counts);
    }
}
