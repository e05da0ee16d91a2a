//! Streaming wafer lots: drift detection, online recalibration, and
//! full-refit fallback.
//!
//! The paper's silicon stage fits its boundaries once, on a single DUTT
//! lot. A production fab is a *stream*: lot after lot arrives, and the
//! operating point slowly wanders (maintenance cycles, recipe changes,
//! chuck wear). [`LotStream`] drives the fitted pipeline through that
//! stream with a tiered response per lot:
//!
//! 1. **Accept** — the lot's PCM population is in control on both the x̄
//!    chart and the EWMA chart: reuse the fitted boundaries as-is.
//! 2. **Incremental recalibration** — an alarm below the configured
//!    `refit_limit`: translate the KMM calibration to the new operating
//!    point (an RBF translation identity makes this a re-weighting, not a
//!    re-fit), refresh the KDE bandwidth from the spread ratio, and
//!    warm-start the B3–B5 SMO solves from the current dual solutions
//!    under a tight iteration budget (escalating to the full budget only
//!    when the tight solve exhausts it).
//! 3. **Full refit** — severity beyond the limit, or an incremental
//!    result that fails its self-check: rebuild the silicon-side state
//!    from scratch, exactly like the first (calibration) lot.
//!
//! Every decision is pinned in the run's trace ring as a
//! [`TraceEvent::LotDecision`](sidefp_obs::TraceEvent::LotDecision) and
//! tallied in a [`RecalHealth`] block. Synthetic drift is
//! supplied by a seed-deterministic [`DriftPlan`], applied to the raw
//! tester matrices between measurement and sanitization — where a real
//! excursion would enter the data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_faults::{DriftLedger, DriftPlan};
use sidefp_linalg::Matrix;
use sidefp_obs::RunContext;
use sidefp_stats::kde::AdaptiveKde;
use sidefp_stats::{KernelMeanMatching, OneClassSvmConfig};

use crate::boundary::TrustedBoundary;
use crate::config::ExperimentConfig;
use crate::dataset::DuttPopulation;
use crate::health::RecalHealth;
use crate::report::Table1Row;
use crate::spc::{EwmaChart, SpcMonitor, SpcReport};
use crate::stages::silicon_stage::{fit_silicon, SiliconFit};
use crate::stages::{trojan_test, PremanufacturingStage, SiliconStage, Testbench};
use crate::CoreError;

/// What the stream did with one lot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LotAction {
    /// In control: fitted state reused unchanged.
    Accepted,
    /// Alarmed below the refit limit: incremental recalibration absorbed
    /// the drift.
    Recalibrated,
    /// Full from-scratch refit (calibration lot, severity beyond the
    /// limit, or incremental self-check failure).
    Refitted,
}

impl LotAction {
    /// Stable lowercase name, used in trace events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            LotAction::Accepted => "accept",
            LotAction::Recalibrated => "recalibrate",
            LotAction::Refitted => "refit",
        }
    }
}

impl std::fmt::Display for LotAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything the stream produced for one lot.
#[derive(Debug)]
pub struct LotOutcome {
    /// Lot index (0 = the calibration lot).
    pub lot: usize,
    /// The policy tier the lot landed in.
    pub action: LotAction,
    /// Worst standardized deviation across the x̄ and EWMA charts
    /// (0 for the calibration lot, which has no reference yet).
    pub severity: f64,
    /// The x̄-chart report (`None` for the calibration lot).
    pub spc: Option<SpcReport>,
    /// The EWMA-chart report (`None` for the calibration lot).
    pub ewma: Option<SpcReport>,
    /// Table-1 detection counts of B1–B5 on this lot's DUTTs, evaluated
    /// with the post-decision boundaries.
    pub table1: Vec<Table1Row>,
    /// What the drift plan did to this lot's raw matrices.
    pub drift: DriftLedger,
    /// Warm solves escalated to the full budget while handling this lot.
    pub escalated: usize,
    /// The lot's sanitized DUTT population.
    pub dutts: DuttPopulation,
}

/// Silicon-side fitted state, rebuilt at every full refit.
struct FittedState {
    /// x̄ chart over the reference lot's PCM population.
    monitor: SpcMonitor,
    /// EWMA chart over the lot sequence since the last reference move.
    ewma: EwmaChart,
    /// Mean-shift-calibrated simulation PCM population, in shift space,
    /// as of the last full refit (the KMM backing caches exactly these
    /// rows).
    shifted: Matrix,
    /// Column means of the full-refit lot's silicon PCMs in shift space —
    /// the anchor all incremental translation deltas are measured from.
    si_mean: Vec<f64>,
    /// Fitted KMM at the full-refit operating point; incremental lots
    /// only re-weight it.
    kmm: KernelMeanMatching,
    /// KDE fitted on the full-refit S4; incremental lots only refresh its
    /// bandwidth.
    kde: AdaptiveKde,
    /// S3 of the full refit.
    s3: Matrix,
    /// S4 of the full refit: its per-column spread and means anchor the
    /// bandwidth refresh and the translation of fresh KDE samples.
    s4: Matrix,
    /// Bandwidth the KDE was fitted with at the full refit.
    s4_bandwidth: f64,
    /// Silicon boundaries at the current operating point.
    b3: TrustedBoundary,
    b4: TrustedBoundary,
    b5: TrustedBoundary,
}

/// Drives the fitted pipeline through a stream of wafer lots, watching
/// each lot's PCM population for drift and recalibrating (incrementally
/// when possible, from scratch when necessary) so detection keeps working
/// as the process wanders.
///
/// The first [`LotStream::advance`] call is the *calibration lot*: it
/// fits the silicon-side state exactly like [`SiliconStage`] and
/// calibrates the SPC charts on that lot's PCM population. Every later
/// call measures a fresh lot (same fab, fresh RNG draw), applies the
/// configured [`DriftPlan`], and runs the tiered policy in
/// [`RecalConfig`](crate::config::RecalConfig).
///
/// # Example
///
/// ```no_run
/// use sidefp_core::config::ExperimentConfig;
/// use sidefp_core::stages::recalibrate::LotStream;
/// use sidefp_faults::DriftPlan;
///
/// # fn main() -> Result<(), sidefp_core::CoreError> {
/// let mut stream = LotStream::new(ExperimentConfig::default(), DriftPlan::none())?;
/// let calibration = stream.advance()?; // lot 0: fits everything
/// let lot1 = stream.advance()?; // lot 1: accept / recalibrate / refit
/// println!("lot 1: {}", lot1.action);
/// # Ok(())
/// # }
/// ```
pub struct LotStream {
    config: ExperimentConfig,
    drift: DriftPlan,
    bench: Testbench,
    pre: PremanufacturingStage,
    rng: StdRng,
    /// Separate stream for KDE sampling during recalibrations, so the
    /// lot *measurements* are a pure function of `(seed, lot index)` —
    /// identical across policy configurations. Two streams differing only
    /// in their tiering knobs therefore see bit-identical lots, which is
    /// what makes incremental-vs-full-refit comparisons meaningful.
    sample_rng: StdRng,
    fitted: Option<FittedState>,
    health: RecalHealth,
    lot: usize,
    obs: RunContext,
}

impl LotStream {
    /// Builds a stream: validates the config and drift plan and runs the
    /// pre-manufacturing stage (which never changes across lots — the
    /// trusted simulation model does not drift).
    ///
    /// # Errors
    ///
    /// Propagates config validation, drift-plan validation and
    /// pre-manufacturing errors.
    pub fn new(config: ExperimentConfig, drift: DriftPlan) -> Result<Self, CoreError> {
        Self::new_observed(config, drift, &RunContext::new())
    }

    /// [`LotStream::new`] recording into `obs`: stage spans, solver
    /// rescues and per-lot decisions land on the run's own telemetry.
    ///
    /// # Errors
    ///
    /// Same as [`LotStream::new`].
    pub fn new_observed(
        config: ExperimentConfig,
        drift: DriftPlan,
        obs: &RunContext,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        drift.validate().map_err(CoreError::from)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let bench = Testbench::from_config(&config, &mut rng)?;
        let pre = PremanufacturingStage::run_observed(&config, &bench, &mut rng, obs)?;
        let sample_rng = StdRng::seed_from_u64(sidefp_parallel::fork_seed(config.seed, 0x5a17));
        Ok(LotStream {
            config,
            drift,
            bench,
            pre,
            rng,
            sample_rng,
            fitted: None,
            health: RecalHealth::default(),
            lot: 0,
            obs: obs.clone(),
        })
    }

    /// The experiment configuration the stream runs under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Number of lots processed so far (including the calibration lot).
    pub fn lots(&self) -> usize {
        self.lot
    }

    /// The exact per-tier accounting so far.
    pub fn health(&self) -> RecalHealth {
        self.health
    }

    /// The five current boundaries, in paper order B1–B5 (B1/B2 come from
    /// the drift-free simulation stage and never change).
    ///
    /// # Panics
    ///
    /// Panics if called before the first [`LotStream::advance`] — there is
    /// no silicon-side state yet.
    pub fn boundaries(&self) -> [&TrustedBoundary; 5] {
        let f = self.fitted();
        [&self.pre.b1, &self.pre.b2, &f.b3, &f.b4, &f.b5]
    }

    /// S3 of the last full refit (the calibration lot's until drift forces
    /// another).
    ///
    /// # Panics
    ///
    /// Same as [`LotStream::boundaries`].
    pub fn s3(&self) -> &Matrix {
        &self.fitted().s3
    }

    /// S4 of the last full refit.
    ///
    /// # Panics
    ///
    /// Same as [`LotStream::boundaries`].
    pub fn s4(&self) -> &Matrix {
        &self.fitted().s4
    }

    /// KMM importance weights at the current operating point.
    ///
    /// # Panics
    ///
    /// Same as [`LotStream::boundaries`].
    pub fn kmm_weights(&self) -> &[f64] {
        self.fitted().kmm.weights()
    }

    fn fitted(&self) -> &FittedState {
        self.fitted
            .as_ref()
            .expect("silicon-side state read before the calibration lot")
    }

    /// Measures, drift-perturbs and processes the next lot, returning
    /// what was decided and produced.
    ///
    /// # Errors
    ///
    /// Propagates measurement, drift-application, SPC and fitting errors;
    /// the stream is left unchanged when a lot fails (the lot counter
    /// only advances on success).
    pub fn advance(&mut self) -> Result<LotOutcome, CoreError> {
        let lot = self.lot;
        // Clone the shared handle so the span does not pin `self` borrowed
        // for the whole advance.
        let obs = self.obs.clone();
        let _span = obs.span(format!("lot.{lot}"));

        // Measure the raw lot, let the drift plan wander the operating
        // point, then inject faults + sanitize exactly like a single-shot
        // run would.
        let mut raw = SiliconStage::measure_raw_lot(&self.config, &self.bench, &mut self.rng)?;
        let ledger = self
            .drift
            .apply(lot, &mut raw.fingerprints, &mut raw.pcms)
            .map_err(CoreError::from)?;
        let (dutts, _health) = SiliconStage::assemble_lot(&self.config, raw, &self.obs)?;

        let outcome = match self.fitted.take() {
            None => {
                // The calibration lot: everything is a "full refit".
                let fitted = self.full_refit(&dutts)?;
                self.fitted = Some(fitted);
                self.health.refitted += 1;
                self.obs
                    .trace_lot_decision(lot, "refit", "initial calibration");
                self.finish_lot(lot, LotAction::Refitted, 0.0, None, None, ledger, 0, dutts)?
            }
            Some(mut fitted) => {
                let spc = fitted.monitor.check(dutts.pcms())?;
                let ewma = fitted.ewma.update(dutts.pcms())?;
                let severity = spc.worst_zscore().max(ewma.worst_zscore());
                let alarm = spc.alarm() || ewma.alarm();
                let recal = self.config.recalibration;

                if !alarm {
                    self.health.accepted += 1;
                    self.obs.trace_lot_decision(
                        lot,
                        "accept",
                        format!("in control, worst z={severity:.2}"),
                    );
                    self.fitted = Some(fitted);
                    self.finish_lot(
                        lot,
                        LotAction::Accepted,
                        severity,
                        Some(spc),
                        Some(ewma),
                        ledger,
                        0,
                        dutts,
                    )?
                } else if severity <= recal.refit_limit {
                    match self.incremental_recalibrate(&mut fitted, &dutts)? {
                        IncrementalResult::Done { escalated } => {
                            self.health.recalibrated += 1;
                            self.health.escalations += escalated;
                            self.obs.trace_lot_decision(
                                lot,
                                "recalibrate",
                                format!("worst z={severity:.2}, escalated {escalated} solves"),
                            );
                            self.fitted = Some(fitted);
                            self.finish_lot(
                                lot,
                                LotAction::Recalibrated,
                                severity,
                                Some(spc),
                                Some(ewma),
                                ledger,
                                escalated,
                                dutts,
                            )?
                        }
                        IncrementalResult::SelfCheckFailed { escalated, rate } => {
                            self.health.selfcheck_failures += 1;
                            self.health.escalations += escalated;
                            self.health.refitted += 1;
                            self.obs.trace_lot_decision(
                                lot,
                                "refit",
                                format!(
                                    "incremental self-check failed \
                                     (rejection rate {rate:.3}), falling back"
                                ),
                            );
                            let fitted = self.full_refit(&dutts)?;
                            self.fitted = Some(fitted);
                            self.finish_lot(
                                lot,
                                LotAction::Refitted,
                                severity,
                                Some(spc),
                                Some(ewma),
                                ledger,
                                escalated,
                                dutts,
                            )?
                        }
                    }
                } else {
                    self.health.refitted += 1;
                    self.obs.trace_lot_decision(
                        lot,
                        "refit",
                        format!(
                            "worst z={severity:.2} beyond refit limit {:.2}",
                            recal.refit_limit
                        ),
                    );
                    let fitted = self.full_refit(&dutts)?;
                    self.fitted = Some(fitted);
                    self.finish_lot(
                        lot,
                        LotAction::Refitted,
                        severity,
                        Some(spc),
                        Some(ewma),
                        ledger,
                        0,
                        dutts,
                    )?
                }
            }
        };
        self.lot += 1;
        self.health.lots += 1;
        Ok(outcome)
    }

    /// Evaluates the (post-decision) boundaries on the lot and packages
    /// the outcome.
    #[allow(clippy::too_many_arguments)]
    fn finish_lot(
        &self,
        lot: usize,
        action: LotAction,
        severity: f64,
        spc: Option<SpcReport>,
        ewma: Option<SpcReport>,
        drift: DriftLedger,
        escalated: usize,
        dutts: DuttPopulation,
    ) -> Result<LotOutcome, CoreError> {
        let table1 = trojan_test::evaluate_boundaries(&self.boundaries(), &dutts)?;
        Ok(LotOutcome {
            lot,
            action,
            severity,
            spc,
            ewma,
            table1,
            drift,
            escalated,
            dutts,
        })
    }

    /// Rebuilds the whole silicon-side state from this lot through the
    /// same fit as [`SiliconStage::run_observed`], and re-references both
    /// SPC charts to the lot's PCM population.
    fn full_refit(&mut self, dutts: &DuttPopulation) -> Result<FittedState, CoreError> {
        let obs = self.obs.clone();
        let _span = obs.span("recalibrate.full_refit");
        let config = &self.config;
        let SiliconFit {
            s3,
            s4,
            shifted,
            kmm,
            kde,
            b3,
            b4,
            b5,
            ..
        } = fit_silicon(config, &self.pre, dutts, self.sample_rng.next_u64(), &obs)?;

        // Re-reference the charts: this lot's population is the new
        // in-control point, and accumulated EWMA history no longer
        // applies to it.
        let recal = config.recalibration;
        let monitor = SpcMonitor::calibrate_with_limit(dutts.pcms(), recal.control_limit)?;
        let ewma = monitor.ewma(recal.ewma_lambda)?;
        let si_mean = config
            .regression_space
            .to_shift_space(dutts.pcms())?
            .column_means();
        let s4_bandwidth = kde.bandwidth();

        Ok(FittedState {
            monitor,
            ewma,
            shifted,
            si_mean,
            kmm,
            kde,
            s3,
            s4,
            s4_bandwidth,
            b3,
            b4,
            b5,
        })
    }

    /// The incremental tier: absorb mild drift without refitting anything
    /// from scratch.
    ///
    /// - **KMM**: for an RBF kernel `k(x + δ, y) = k(x, y − δ)`, so
    ///   re-weighting against the lot's shift-space PCMs translated by
    ///   `−δ` (δ = lot mean − calibration mean) yields exactly the weights
    ///   of the calibration population translated *onto* the lot — a QP
    ///   re-solve over cached Gram structure instead of a mean-shift
    ///   iteration plus fresh fit.
    /// - **KDE**: the normal-reference bandwidth depends on the data only
    ///   through its spread, so the refreshed bandwidth is the fitted one
    ///   scaled by the average per-column S4 spread ratio; fresh samples
    ///   are then translated by the S4 mean delta.
    /// - **B3–B5**: warm-started SMO refits under
    ///   `max_iter / warm_budget_divisor`, escalated to the full budget
    ///   one boundary at a time when the tight budget is exhausted.
    fn incremental_recalibrate(
        &mut self,
        fitted: &mut FittedState,
        dutts: &DuttPopulation,
    ) -> Result<IncrementalResult, CoreError> {
        let obs = self.obs.clone();
        let _span = obs.span("recalibrate.incremental");
        let config = &self.config;
        let recal = config.recalibration;

        // Translation delta in shift space, measured from the full-refit
        // anchor so successive incremental steps compose.
        let space = config.regression_space;
        let si_pcms = space.to_shift_space(dutts.pcms())?;
        let lot_mean = si_pcms.column_means();
        let delta: Vec<f64> = lot_mean
            .iter()
            .zip(&fitted.si_mean)
            .map(|(l, c)| l - c)
            .collect();

        // KMM re-weighting via the RBF translation identity.
        let translated_test = Matrix::from_fn(si_pcms.nrows(), si_pcms.ncols(), |i, j| {
            si_pcms[(i, j)] - delta[j]
        });
        fitted
            .kmm
            .reweight_observed(&translated_test, &config.kmm, &obs)?;

        // S4 at the drifted operating point: calibration population plus
        // the translation, through the regression bank.
        let shifted_new = Matrix::from_fn(fitted.shifted.nrows(), fitted.shifted.ncols(), {
            |i, j| fitted.shifted[(i, j)] + delta[j]
        });
        let s4 = self
            .pre
            .predictor
            .predict_rows(&space.to_pcm_units(&shifted_new))?;

        // KDE bandwidth refresh from the S4 spread ratio; fresh samples
        // translated to the new fingerprint-space mean.
        let ratio = column_sds(&s4)
            .iter()
            .zip(&column_sds(&fitted.s4))
            .map(|(n, c)| if *c > 0.0 { n / c } else { 1.0 })
            .sum::<f64>()
            / s4.ncols().max(1) as f64;
        fitted
            .kde
            .refresh_bandwidth((fitted.s4_bandwidth * ratio).max(f64::MIN_POSITIVE))?;
        let mut s5 = fitted
            .kde
            .sample_matrix_streamed(self.sample_rng.next_u64(), config.kde_samples);
        let s5_shift: Vec<f64> = s4
            .column_means()
            .iter()
            .zip(&fitted.s4.column_means())
            .map(|(n, c)| n - c)
            .collect();
        for i in 0..s5.nrows() {
            for (v, shift) in s5.row_mut(i).iter_mut().zip(&s5_shift) {
                *v += shift;
            }
        }

        // Warm boundary refits under the tight budget, escalating to the
        // full budget only where the tight solve was exhausted.
        let s3 = self.pre.predictor.predict_rows(dutts.pcms())?;
        let full_budget = OneClassSvmConfig::default().max_iter;
        let tight_budget = (full_budget / recal.warm_budget_divisor).max(1);
        let mut escalated = 0;
        let mut refit_one = |old: &TrustedBoundary,
                             data: &Matrix,
                             bcfg: &crate::config::BoundaryConfig,
                             seed: u64|
         -> Result<TrustedBoundary, CoreError> {
            let warm = old.refit_warm_observed(data, bcfg, seed, tight_budget, &obs)?;
            if warm.solve_iterations() >= tight_budget {
                escalated += 1;
                warm.refit_warm_observed(data, bcfg, seed, full_budget, &obs)
            } else {
                Ok(warm)
            }
        };
        let b3 = refit_one(&fitted.b3, &s3, &config.boundary, config.seed ^ 0xb3)?;
        let b4 = refit_one(&fitted.b4, &s4, &config.boundary, config.seed ^ 0xb4)?;
        let b5 = refit_one(&fitted.b5, &s5, &config.enhanced_boundary, {
            config.seed ^ 0xb5
        })?;

        // Self-check: a healthy ν-OCSVM rejects ≈ ν of its own training
        // population; a recalibrated boundary rejecting much more has not
        // actually followed the drift.
        let worst_rate = [(&b3, &s3), (&b4, &s4), (&b5, &s5)]
            .into_iter()
            .map(|(b, data)| rejection_rate(b, data))
            .collect::<Result<Vec<f64>, CoreError>>()?
            .into_iter()
            .fold(0.0_f64, f64::max);
        if worst_rate > recal.max_rejection_rate {
            return Ok(IncrementalResult::SelfCheckFailed {
                escalated,
                rate: worst_rate,
            });
        }

        fitted.b3 = b3;
        fitted.b4 = b4;
        fitted.b5 = b5;
        // Re-reference the charts to the absorbed operating point (the
        // KMM/KDE anchors stay at the full-refit calibration — the deltas
        // above are cumulative against them).
        fitted.monitor = SpcMonitor::calibrate_with_limit(dutts.pcms(), recal.control_limit)?;
        fitted.ewma = fitted.monitor.ewma(recal.ewma_lambda)?;
        Ok(IncrementalResult::Done { escalated })
    }
}

/// Outcome of one incremental-recalibration attempt.
enum IncrementalResult {
    /// The fitted state now tracks the drifted operating point.
    Done {
        /// Warm solves that needed the full budget.
        escalated: usize,
    },
    /// The recalibrated boundaries failed the self-check; the caller must
    /// fall back to a full refit.
    SelfCheckFailed {
        /// Warm solves that needed the full budget before the check ran.
        escalated: usize,
        /// The worst observed training rejection rate.
        rate: f64,
    },
}

/// Rows the self-check scores per batched call: 64 of the expansion's
/// 64-row chunks, enough to keep every worker busy, while the scratch
/// stays O(block) however many KDE samples B5 trains on.
pub(crate) const SELF_CHECK_BLOCK: usize = 4096;

/// Fraction of `data` rows the boundary rejects, scored in
/// [`SELF_CHECK_BLOCK`]-row blocks through
/// [`TrustedBoundary::decision_rows_into`] with one reused pair of
/// buffers.
fn rejection_rate(boundary: &TrustedBoundary, data: &Matrix) -> Result<f64, CoreError> {
    let (n, d) = (data.nrows(), data.ncols());
    if n == 0 {
        return Ok(0.0);
    }
    let (mut z, mut decisions) = (Vec::new(), Vec::new());
    let mut rejected = 0usize;
    for start in (0..n).step_by(SELF_CHECK_BLOCK) {
        let len = SELF_CHECK_BLOCK.min(n - start);
        decisions.resize(len, 0.0);
        boundary.decision_rows_into(
            &data.as_slice()[start * d..(start + len) * d],
            &mut z,
            &mut decisions,
        )?;
        rejected += decisions.iter().filter(|v| **v < 0.0).count();
    }
    Ok(rejected as f64 / n as f64)
}

/// Per-column (population) standard deviations.
fn column_sds(m: &Matrix) -> Vec<f64> {
    let n = m.nrows().max(1) as f64;
    let means = m.column_means();
    (0..m.ncols())
        .map(|j| {
            let var = m
                .col(j)
                .iter()
                .map(|v| (v - means[j]) * (v - means[j]))
                .sum::<f64>()
                / n;
            var.sqrt()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidefp_faults::DriftClass;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            chips: 10,
            mc_samples: 40,
            kde_samples: 1200,
            ..Default::default()
        }
    }

    #[test]
    fn first_advance_is_the_calibration_lot() {
        let mut stream = LotStream::new(tiny_config(), DriftPlan::none()).unwrap();
        assert_eq!(stream.lots(), 0);
        let cal = stream.advance().unwrap();
        assert_eq!(cal.lot, 0);
        assert_eq!(cal.action, LotAction::Refitted);
        assert_eq!(cal.severity, 0.0);
        assert!(cal.spc.is_none() && cal.ewma.is_none());
        assert_eq!(cal.table1.len(), 5);
        let names: Vec<&str> = stream.boundaries().iter().map(|b| b.name()).collect();
        assert_eq!(names, ["B1", "B2", "B3", "B4", "B5"]);
        let h = stream.health();
        assert_eq!((h.lots, h.refitted), (1, 1));
        assert!(h.is_clean());
    }

    #[test]
    fn clean_stream_accounting_is_exact() {
        let mut stream = LotStream::new(tiny_config(), DriftPlan::none()).unwrap();
        for _ in 0..5 {
            let o = stream.advance().unwrap();
            assert_eq!(o.table1.len(), 5);
            assert!(o.drift.is_empty());
            if o.lot > 0 {
                assert!(o.spc.is_some() && o.ewma.is_some());
            }
        }
        let h = stream.health();
        assert_eq!(h.lots, 5);
        assert_eq!(h.accepted + h.recalibrated + h.refitted, h.lots);
        // Benign lot-to-lot fab variation must never need the escalation
        // ladder's full budget or trip the self-check.
        assert_eq!(h.selfcheck_failures, 0);
    }

    #[test]
    fn abrupt_shift_beyond_the_limit_forces_a_full_refit() {
        // A 30σ step dwarfs the refit limit; the stream must fall back to
        // a full refit at the onset lot, after which the re-referenced
        // charts see only lot noise again.
        let drift = DriftPlan::single(DriftClass::MeanShift, 30.0, 1, 77);
        let mut stream = LotStream::new(tiny_config(), drift).unwrap();
        let refit_limit = stream.config().recalibration.refit_limit;
        stream.advance().unwrap();
        let hit = stream.advance().unwrap();
        assert_eq!(hit.action, LotAction::Refitted);
        assert!(hit.severity > refit_limit, "severity {}", hit.severity);
        assert_eq!(hit.drift.total(), 1);
        let after = stream.advance().unwrap();
        // The step persists lot over lot, so after re-referencing it no
        // longer looks like fresh drift of step magnitude. (The step is
        // scaled by each lot's own realized σ, so residual mismatch can
        // still alarm — but far below the original excursion.)
        assert!(after.severity < hit.severity);
        assert!(stream.health().refitted >= 2);
    }

    #[test]
    fn zero_refit_limit_disables_the_incremental_tier() {
        let mut config = tiny_config();
        config.recalibration.refit_limit = 0.0;
        let mut stream = LotStream::new(config, DriftPlan::none()).unwrap();
        for _ in 0..4 {
            stream.advance().unwrap();
        }
        let h = stream.health();
        assert_eq!(h.recalibrated, 0);
        assert_eq!(h.accepted + h.refitted, h.lots);
    }

    #[test]
    fn decisions_land_in_the_trace_ring() {
        let obs = RunContext::new();
        let mut stream = LotStream::new_observed(tiny_config(), DriftPlan::none(), &obs).unwrap();
        stream.advance().unwrap();
        stream.advance().unwrap();
        let jsonl = obs.trace_jsonl();
        assert!(jsonl.contains("\"type\":\"lot_decision\""), "{jsonl}");
        assert!(jsonl.contains("initial calibration"), "{jsonl}");
    }

    #[test]
    fn invalid_drift_plans_and_configs_are_rejected_up_front() {
        let bad = DriftPlan::single(DriftClass::SlowRamp, -0.5, 0, 1);
        assert!(LotStream::new(tiny_config(), bad).is_err());
        let mut config = tiny_config();
        config.recalibration.warm_budget_divisor = 0;
        assert!(LotStream::new(config, DriftPlan::none()).is_err());
    }

    #[test]
    #[should_panic(expected = "before the calibration lot")]
    fn boundaries_before_calibration_panic() {
        let stream = LotStream::new(tiny_config(), DriftPlan::none()).unwrap();
        let _ = stream.boundaries();
    }

    #[test]
    fn blocked_self_check_is_worker_invariant() {
        // More KDE samples than two self-check blocks plus a ragged tail,
        // and a refit limit no alarm reaches, so every alarmed lot takes
        // the incremental tier and its blocked self-check.
        let mut config = tiny_config();
        config.kde_samples = 2 * SELF_CHECK_BLOCK + 808;
        config.enhanced_boundary.train_cap = 300;
        config.recalibration.refit_limit = 1e6;
        let drift = DriftPlan::single(DriftClass::SlowRamp, 0.5, 1, 9);
        let run = |threads: usize| {
            sidefp_parallel::with_threads(threads, || {
                let mut stream = LotStream::new(config.clone(), drift.clone()).unwrap();
                let lots: Vec<_> = (0..4)
                    .map(|_| {
                        let o = stream.advance().unwrap();
                        (o.action, o.severity.to_bits(), o.table1)
                    })
                    .collect();
                (lots, stream.health())
            })
        };
        let (lots, health) = run(1);
        assert!(health.recalibrated >= 1, "{health:?}");
        assert_eq!(health.refitted, 1, "{health:?}");
        assert_eq!((lots, health), run(2));
    }

    #[test]
    fn streams_are_bit_reproducible() {
        let drift = DriftPlan::single(DriftClass::SlowRamp, 0.4, 1, 5);
        let run = |threads: usize| {
            sidefp_parallel::with_threads(threads, || {
                let mut stream = LotStream::new(tiny_config(), drift.clone()).unwrap();
                (0..4)
                    .map(|_| {
                        let o = stream.advance().unwrap();
                        (o.lot, o.action, o.severity.to_bits(), o.table1)
                    })
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(run(1), run(8));
    }
}
