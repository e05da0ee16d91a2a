//! Sustained-throughput batch scoring over a loaded [`FittedModel`].
//!
//! This is the production half of the fit/score split: a tester loads the
//! artifact once and streams wafer-lot-sized batches (10⁴–10⁶ devices)
//! through sanitize → standardize → SVM decision, never touching a fit
//! stage. The scorer pools its per-batch scratch in a
//! [`Workspace`], so steady-state batches reuse
//! the same buffers, and the strict per-device path
//! ([`BatchScorer::score_into`]) performs zero heap allocations.
//!
//! Determinism: scoring is a pure function of the artifact and the input
//! rows — there is no RNG, and the per-row SVM kernel sums are sequential
//! per device — so verdicts are bit-identical at any thread count and
//! whether the model came fresh from a fit or through the artifact codec.

use sidefp_linalg::{Matrix, Workspace};
use sidefp_obs::{RunContext, TraceEvent};
use sidefp_stats::DetectionLabel;

use crate::artifact::FittedModel;
use crate::boundary::TrustedBoundary;
use crate::health::MeasurementHealth;
use crate::stages::sanitize::{sanitize_measurements_pinned, SanitizerConfig, SanitizerThresholds};
use crate::CoreError;

/// One scored batch: per-device decision values for every boundary, the
/// final verdicts, and the exact sanitize-stage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredBatch {
    /// Signed decision values, one row per *kept* device, one column per
    /// boundary (B1…B5 order).
    pub decisions: Matrix,
    /// Verdict per kept device from the scoring boundary (B5, the paper's
    /// final detector): `TrojanFree` iff its decision value is ≥ 0.
    pub verdicts: Vec<DetectionLabel>,
    /// Raw row indices of the kept devices, ascending.
    pub kept: Vec<usize>,
    /// What the sanitizer repaired and quarantined — identical accounting
    /// to the fit pipeline's measurement stage.
    pub health: MeasurementHealth,
}

impl ScoredBatch {
    /// Number of kept devices flagged Trojan-infested by the scoring
    /// boundary.
    pub fn flagged(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| **v == DetectionLabel::TrojanInfested)
            .count()
    }
}

/// A long-lived scoring engine: borrow-free snapshot of the artifact's
/// boundaries plus pooled scratch, built once and fed many batches.
///
/// # Example
///
/// ```no_run
/// use sidefp_core::artifact::FittedModel;
/// use sidefp_core::config::ExperimentConfig;
/// use sidefp_core::score::BatchScorer;
/// use sidefp_core::RunContext;
///
/// # fn main() -> Result<(), sidefp_core::CoreError> {
/// let model = FittedModel::fit(&ExperimentConfig::default())?;
/// let mut scorer = BatchScorer::new(&model);
/// let (fps, pcms) = model.synthesize_batch(1, 10_000);
/// let ctx = RunContext::new();
/// let batch = scorer.score_batch(&fps, &pcms, &ctx)?;
/// println!("flagged {} of {}", batch.flagged(), batch.kept.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchScorer {
    boundaries: Vec<TrustedBoundary>,
    sanitizer: SanitizerConfig,
    thresholds: SanitizerThresholds,
    fingerprint_dim: usize,
    ws: Workspace,
    /// Persistent standardization scratch for the per-device path.
    row_scratch: Vec<f64>,
    batches_scored: usize,
}

impl BatchScorer {
    /// Builds a scorer over the model's boundaries. The scorer owns clones
    /// of the fitted state, so the model (and its artifact bytes) can be
    /// dropped afterwards.
    pub fn new(model: &FittedModel) -> Self {
        BatchScorer {
            boundaries: model.boundaries().to_vec(),
            sanitizer: model.sanitizer(),
            thresholds: model.sanitizer_thresholds().clone(),
            fingerprint_dim: model.fingerprint_dim(),
            ws: Workspace::new(),
            row_scratch: vec![0.0; model.fingerprint_dim()],
            batches_scored: 0,
        }
    }

    /// The boundaries this scorer evaluates, in decision-column order.
    pub fn boundaries(&self) -> &[TrustedBoundary] {
        &self.boundaries
    }

    /// Scores one raw batch: sanitizes with the artifact's *pinned*
    /// repair targets and winsorization bounds (quarantine and dedup are
    /// identical to the fit pipeline's measurement stage; repairs land on
    /// the fit-time reference medians instead of per-batch statistics,
    /// which also drops the per-batch column sorts), then evaluates every
    /// boundary on the surviving rows through the pooled `*_into` scoring
    /// paths. Emits `score.sanitize` / `score.boundaries` spans and one
    /// [`TraceEvent::BatchScored`] summary per call into `obs`.
    ///
    /// # Errors
    ///
    /// - [`CoreError::DataQuality`] when fewer than the sanitizer's
    ///   `min_devices` survive quarantine.
    /// - Dimension-mismatch errors for rows that do not match the model.
    pub fn score_batch(
        &mut self,
        fingerprints: &Matrix,
        pcms: &Matrix,
        obs: &RunContext,
    ) -> Result<ScoredBatch, CoreError> {
        let devices_in = fingerprints.nrows();
        let sanitize_span = obs.span("score.sanitize");
        let sanitized =
            sanitize_measurements_pinned(fingerprints, pcms, &self.sanitizer, &self.thresholds)?;
        for q in &sanitized.health.quarantined {
            obs.trace(TraceEvent::Quarantine {
                device: q.index,
                reason: q.reason.to_string(),
            });
        }
        drop(sanitize_span);

        let boundary_span = obs.span("score.boundaries");
        let n = sanitized.fingerprints.nrows();
        let d = self.fingerprint_dim;
        if sanitized.fingerprints.ncols() != d {
            return Err(CoreError::InvalidConfig {
                name: "fingerprints",
                reason: format!(
                    "batch has dimension {} vs model dimension {d}",
                    sanitized.fingerprints.ncols()
                ),
            });
        }
        let mut decisions = Matrix::zeros(n, self.boundaries.len());
        // Score the whole batch against each boundary with pooled
        // standardization and decision buffers, returned to the pool
        // afterwards — steady-state batches of one size allocate nothing
        // here.
        let mut z = self.ws.take(n * d);
        let mut out = self.ws.take(n);
        for (bi, b) in self.boundaries.iter().enumerate() {
            b.decision_rows_into(sanitized.fingerprints.as_slice(), &mut z, &mut out)?;
            for (i, v) in out.iter().enumerate() {
                decisions[(i, bi)] = *v;
            }
        }
        self.ws.give(z);
        self.ws.give(out);
        drop(boundary_span);

        let verdict_col = self.boundaries.len() - 1;
        let verdicts: Vec<DetectionLabel> = (0..n)
            .map(|i| {
                if decisions[(i, verdict_col)] >= 0.0 {
                    DetectionLabel::TrojanFree
                } else {
                    DetectionLabel::TrojanInfested
                }
            })
            .collect();
        let flagged = verdicts
            .iter()
            .filter(|v| **v == DetectionLabel::TrojanInfested)
            .count();
        obs.trace(TraceEvent::BatchScored {
            batch: self.batches_scored,
            devices: devices_in,
            kept: n,
            flagged,
        });
        self.batches_scored += 1;

        Ok(ScoredBatch {
            decisions,
            verdicts,
            kept: sanitized.kept,
            health: sanitized.health,
        })
    }

    /// Strict per-device path: writes one decision value per boundary into
    /// `out` for a single (already sanitized) fingerprint. Performs zero
    /// heap allocations in steady state — the standardization scratch is
    /// owned by the scorer and the SVM kernel sum is allocation-free —
    /// and produces values bit-identical to the batch path's.
    ///
    /// # Errors
    ///
    /// Returns dimension-mismatch errors for a wrong fingerprint or `out`
    /// length, and rejects non-finite fingerprints.
    pub fn score_into(&mut self, fingerprint: &[f64], out: &mut [f64]) -> Result<(), CoreError> {
        if out.len() != self.boundaries.len() {
            return Err(CoreError::InvalidConfig {
                name: "out",
                reason: format!(
                    "{} output slots for {} boundaries",
                    out.len(),
                    self.boundaries.len()
                ),
            });
        }
        for (b, slot) in self.boundaries.iter().zip(out.iter_mut()) {
            *slot = b.decision_into(fingerprint, &mut self.row_scratch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    fn tiny_model() -> FittedModel {
        FittedModel::fit(&ExperimentConfig {
            chips: 10,
            mc_samples: 40,
            kde_samples: 1200,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn batch_and_row_paths_agree_bitwise() {
        let model = tiny_model();
        let mut scorer = BatchScorer::new(&model);
        let (fps, pcms) = model.synthesize_batch(11, 40);
        let ctx = RunContext::new();
        let batch = scorer.score_batch(&fps, &pcms, &ctx).unwrap();
        assert_eq!(batch.kept.len(), 40);
        assert!(batch.health.is_clean());
        let mut row = vec![0.0; scorer.boundaries().len()];
        for (i, &raw) in batch.kept.iter().enumerate() {
            scorer.score_into(fps.row(raw), &mut row).unwrap();
            for (bi, v) in row.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    batch.decisions[(i, bi)].to_bits(),
                    "device {i} boundary {bi}"
                );
            }
        }
    }

    #[test]
    fn pinned_scoring_survives_artifact_round_trip_bitwise() {
        let model = tiny_model();
        let loaded = FittedModel::from_bytes(&model.to_bytes()).unwrap();
        let mut fresh = BatchScorer::new(&model);
        let mut thawed = BatchScorer::new(&loaded);
        // Inject a repairable NaN so the pinned repair targets are
        // actually exercised, not just carried along.
        let (mut fps, pcms) = model.synthesize_batch(11, 24);
        fps[(5, 0)] = f64::NAN;
        let ctx = RunContext::new();
        let a = fresh.score_batch(&fps, &pcms, &ctx).unwrap();
        let b = thawed.score_batch(&fps, &pcms, &ctx).unwrap();
        assert_eq!(a.health.repaired_readings, 1);
        assert_eq!(a.health, b.health);
        assert_eq!(a.kept, b.kept);
        let bits: Vec<u64> = a.decisions.as_slice().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = b.decisions.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, bits_b, "decisions drifted through the artifact codec");
    }

    #[test]
    fn repeated_batches_emit_monotone_trace_events() {
        let model = tiny_model();
        let mut scorer = BatchScorer::new(&model);
        let ctx = RunContext::new();
        for s in 0..3 {
            let (fps, pcms) = model.synthesize_batch(s, 16);
            scorer.score_batch(&fps, &pcms, &ctx).unwrap();
        }
        let batches: Vec<usize> = ctx
            .trace_events()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::BatchScored { batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![0, 1, 2]);
    }

    #[test]
    fn corrupted_rows_are_quarantined_with_exact_accounting() {
        let model = tiny_model();
        let mut scorer = BatchScorer::new(&model);
        let (mut fps, pcms) = model.synthesize_batch(5, 24);
        // Kill device 3 outright (all-NaN fingerprint row).
        for v in fps.row_mut(3) {
            *v = f64::NAN;
        }
        let ctx = RunContext::new();
        let batch = scorer.score_batch(&fps, &pcms, &ctx).unwrap();
        assert_eq!(batch.health.devices_in, 24);
        assert_eq!(batch.health.devices_kept, 23);
        assert_eq!(batch.kept.len(), 23);
        assert!(!batch.kept.contains(&3));
        assert_eq!(batch.verdicts.len(), 23);
    }

    #[test]
    fn wrong_dimension_is_rejected() {
        let model = tiny_model();
        let mut scorer = BatchScorer::new(&model);
        let mut out = vec![0.0; 5];
        assert!(scorer.score_into(&[1.0, 2.0], &mut out).is_err());
        let mut short = vec![0.0; 2];
        let fp = vec![1.0; model.fingerprint_dim()];
        assert!(scorer.score_into(&fp, &mut short).is_err());
    }
}
