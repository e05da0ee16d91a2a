//! Golden chip-free statistical side-channel fingerprinting — the DAC'14
//! detection pipeline.
//!
//! This crate assembles the substrates ([`sidefp_silicon`], [`sidefp_chip`],
//! [`sidefp_stats`]) into the paper's three-stage method:
//!
//! 1. **Pre-manufacturing** ([`stages::PremanufacturingStage`]): Monte
//!    Carlo "SPICE" simulation of `n` golden devices → dataset **S1**;
//!    MARS regressions `g_j : m_p → m_j` from PCMs to fingerprints;
//!    boundary **B1** (1-class SVM on S1); KDE tail enhancement → **S2**,
//!    boundary **B2**.
//! 2. **Silicon measurement** ([`stages::SiliconStage`]): measure the
//!    DUTTs' PCMs; predict golden fingerprints → **S3**, boundary **B3**;
//!    kernel-mean-match the simulated PCM population to the silicon
//!    operating point → **S4**, boundary **B4**; KDE enhancement → **S5**,
//!    boundary **B5**.
//! 3. **Trojan test** ([`stages::trojan_test`]): classify each DUTT
//!    fingerprint against a boundary; report the paper's FP (missed
//!    Trojans) and FN (false alarms) counts.
//!
//! [`experiment::PaperExperiment`] runs the full flow with the paper's
//! parameters (40 chips × 3 versions, `n_m = 6` fingerprints, `n_p = 1`
//! path-delay PCM, 100 Monte Carlo samples, 10⁵ KDE samples) and
//! regenerates **Table 1** and the **Figure 4** projections.
//!
//! # Quickstart
//!
//! ```no_run
//! use sidefp_core::config::ExperimentConfig;
//! use sidefp_core::experiment::PaperExperiment;
//!
//! # fn main() -> Result<(), sidefp_core::CoreError> {
//! let result = PaperExperiment::new(ExperimentConfig::default())?.run()?;
//! println!("{}", result.render_table1());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod boundary;
pub mod config;
pub mod dataset;
mod error;
pub mod experiment;
pub mod golden_baseline;
pub mod health;
pub mod predictor;
pub mod report;
pub mod scenario;
pub mod score;
pub mod spc;
pub mod stages;

pub use artifact::{ArtifactError, FittedModel, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use boundary::TrustedBoundary;
pub use config::{ExperimentConfig, ParallelismConfig};
pub use error::CoreError;
pub use experiment::PaperExperiment;
pub use health::{MeasurementHealth, QuarantineReason, QuarantinedDevice, RecalHealth, RunHealth};
pub use report::{ExperimentResult, Table1Row};
pub use scenario::Scenario;
pub use score::{BatchScorer, ScoredBatch};
pub use sidefp_obs::{RunContext, SolverHealth, TraceEvent, TraceRecord};
pub use stages::recalibrate::{LotAction, LotOutcome, LotStream};
pub use stages::sanitize::{
    sanitize_measurements, sanitize_measurements_pinned, SanitizedMeasurements, SanitizerConfig,
    SanitizerThresholds,
};
