//! Stage 3: the Trojan test (paper §2.3).
//!
//! Classifies every device under Trojan test against a trusted boundary
//! and tallies the paper's FP (missed Trojans, Eq. 1) and FN (false
//! alarms, Eq. 2) counts.

use crate::boundary::TrustedBoundary;
use crate::dataset::DuttPopulation;
use crate::report::Table1Row;
use crate::CoreError;

/// Evaluates a sequence of boundaries on the DUTT population, producing
/// one Table-1 row per boundary.
///
/// # Errors
///
/// Propagates classification errors (fingerprint dimension mismatches).
///
/// # Example
///
/// See [`PaperExperiment`](crate::experiment::PaperExperiment), which calls
/// this with B1–B5.
pub fn evaluate_boundaries(
    boundaries: &[&TrustedBoundary],
    population: &DuttPopulation,
) -> Result<Vec<Table1Row>, CoreError> {
    boundaries
        .iter()
        .map(|b| {
            let counts = b.evaluate(population)?;
            Ok(Table1Row {
                dataset: b.name(),
                counts,
            })
        })
        .collect()
}

/// Per-variant breakdown: how many devices of each Trojan variant a
/// boundary classifies as trusted. Useful for diagnosing which Trojan
/// (amplitude vs. frequency) evades a boundary.
///
/// Returns `(variant, accepted, total)` triples in first-seen order.
///
/// # Errors
///
/// Propagates classification errors.
pub fn variant_breakdown(
    boundary: &TrustedBoundary,
    population: &DuttPopulation,
) -> Result<Vec<(&'static str, usize, usize)>, CoreError> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut accepted: Vec<usize> = Vec::new();
    let mut totals: Vec<usize> = Vec::new();
    let predicted = boundary.classify_rows(population.fingerprints())?;
    for (&variant, label) in population.variants().iter().zip(predicted) {
        let idx = match order.iter().position(|v| *v == variant) {
            Some(idx) => idx,
            None => {
                order.push(variant);
                accepted.push(0);
                totals.push(0);
                order.len() - 1
            }
        };
        totals[idx] += 1;
        if label == sidefp_stats::DetectionLabel::TrojanFree {
            accepted[idx] += 1;
        }
    }
    Ok(order
        .into_iter()
        .zip(accepted.into_iter().zip(totals))
        .map(|(v, (a, t))| (v, a, t))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundaryConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_linalg::Matrix;
    use sidefp_stats::{DetectionLabel, MultivariateNormal};

    fn boundary_and_population() -> (TrustedBoundary, DuttPopulation) {
        let mvn = MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let train = mvn.sample_matrix(&mut rng, 150);
        let b = TrustedBoundary::fit("B5", &train, &BoundaryConfig::default(), 1).unwrap();
        let fps = Matrix::from_rows(&[
            &[0.0, 0.1],  // free, inside
            &[6.0, 6.0],  // amplitude trojan, outside
            &[-6.0, 6.0], // frequency trojan, outside
            &[0.1, -0.2], // free, inside
        ])
        .unwrap();
        let pop = DuttPopulation::new(
            fps,
            Matrix::zeros(4, 1),
            vec![
                DetectionLabel::TrojanFree,
                DetectionLabel::TrojanInfested,
                DetectionLabel::TrojanInfested,
                DetectionLabel::TrojanFree,
            ],
            vec!["free", "amplitude", "frequency", "free"],
        )
        .unwrap();
        (b, pop)
    }

    #[test]
    fn evaluate_boundaries_rows() {
        let (b, pop) = boundary_and_population();
        let rows = evaluate_boundaries(&[&b], &pop).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].dataset, "B5");
        assert_eq!(rows[0].counts.false_positives(), 0);
        assert_eq!(rows[0].counts.false_negatives(), 0);
    }

    #[test]
    fn breakdown_reports_per_variant() {
        let (b, pop) = boundary_and_population();
        let breakdown = variant_breakdown(&b, &pop).unwrap();
        assert_eq!(breakdown.len(), 3);
        let free = breakdown.iter().find(|(v, _, _)| *v == "free").unwrap();
        assert_eq!((free.1, free.2), (2, 2));
        let amp = breakdown
            .iter()
            .find(|(v, _, _)| *v == "amplitude")
            .unwrap();
        assert_eq!((amp.1, amp.2), (0, 1));
    }
}
