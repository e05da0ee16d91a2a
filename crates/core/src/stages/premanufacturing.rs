//! Stage 1: pre-manufacturing (paper §2.1).
//!
//! Monte Carlo "SPICE" simulation of `n` golden devices at the trusted
//! model's (unshifted) operating point yields paired PCM vectors and
//! side-channel fingerprints. From these we train the regression bank
//! `g_j : m_p → m_j`, the naive simulation boundary **B1** (on dataset S1)
//! and its KDE-tail-enhanced refinement **B2** (on dataset S2).

use rand::Rng;
use sidefp_chip::device::WirelessCryptoIc;
use sidefp_chip::trojan::Trojan;
use sidefp_linalg::Matrix;
use sidefp_silicon::foundry::Foundry;
use sidefp_silicon::monte_carlo::MonteCarloEngine;
use sidefp_stats::kde::AdaptiveKde;

use sidefp_obs::RunContext;

use crate::boundary::TrustedBoundary;
use crate::config::ExperimentConfig;
use crate::dataset::Dataset;
use crate::predictor::FingerprintPredictor;
use crate::stages::Testbench;
use crate::CoreError;

/// Products of the pre-manufacturing stage.
#[derive(Debug)]
pub struct PremanufacturingStage {
    /// Simulated golden PCM vectors (`n × n_p`).
    pub pcms: Matrix,
    /// Dataset S1: simulated golden fingerprints (`n × n_m`).
    pub s1: Dataset,
    /// Dataset S2: KDE-enhanced synthetic fingerprints.
    pub s2: Dataset,
    /// The fitted regression bank `g`.
    pub predictor: FingerprintPredictor,
    /// Boundary learned directly from S1.
    pub b1: TrustedBoundary,
    /// Boundary learned from the tail-enhanced S2.
    pub b2: TrustedBoundary,
}

impl PremanufacturingStage {
    /// Runs the stage, recording into `obs`: the `mc`/`regression`/`kde.s2`
    /// spans, the B1/B2 boundary fits and every solver rescue land on the
    /// run's own timings, counters and trace ring.
    ///
    /// # Errors
    ///
    /// Propagates Monte Carlo, regression, KDE and SVM errors.
    pub fn run_observed<R: Rng>(
        config: &ExperimentConfig,
        bench: &Testbench,
        rng: &mut R,
        obs: &RunContext,
    ) -> Result<Self, CoreError> {
        // The trusted simulation model: the foundry as the Spice deck
        // remembers it — zero operating-point shift and (typically)
        // understated corner spread.
        let model = Foundry::nominal().with_sigma_scale(config.model_sigma_scale)?;
        let engine = MonteCarloEngine::new(model, config.mc_samples)?;
        let key = bench.key();
        let suite = bench.pcm_suite().clone();
        let channels = bench.channels().clone();
        let plan = bench.plan().clone();

        // Parallel fan-out: each Monte Carlo sample runs on its own RNG
        // stream forked from a seed drawn here, so the stage stays a pure
        // function of the caller's rng state at any thread count. The
        // power-only channel stack draws exactly the meter's sequence, so
        // the paper scenario is unchanged by the stack indirection.
        let mc_span = obs.span("mc");
        let (_dies, pcms, fingerprints) = engine.run_paired_streamed(
            rng.next_u64(),
            |die, rng| suite.measure(die.process(), rng),
            |die, rng| {
                let device = WirelessCryptoIc::new(die.process().clone(), key, Trojan::None);
                channels.fingerprint(&device, &plan, rng)
            },
        )?;
        drop(mc_span);

        // Regression bank g_j : m_p → m_j.
        let regression_span = obs.span("regression");
        let predictor = FingerprintPredictor::fit_in_space_observed(
            &pcms,
            &fingerprints,
            &config.regressor,
            config.regression_space,
            obs,
        )?;
        drop(regression_span);

        // B1 straight from the simulated fingerprints.
        let b1 = TrustedBoundary::fit_observed(
            "B1",
            &fingerprints,
            &config.boundary,
            config.seed ^ 0xb1,
            obs,
        )?;

        // S2: adaptive-KDE tail enhancement (sampled on per-row parallel
        // RNG streams), then B2.
        let kde_span = obs.span("kde.s2");
        let kde = AdaptiveKde::fit_observed(&fingerprints, &config.kde, obs)?;
        let s2_matrix = kde.sample_matrix_streamed(rng.next_u64(), config.kde_samples);
        drop(kde_span);
        let b2 = TrustedBoundary::fit_observed(
            "B2",
            &s2_matrix,
            &config.enhanced_boundary,
            config.seed ^ 0xb2,
            obs,
        )?;

        Ok(PremanufacturingStage {
            pcms,
            s1: Dataset::new("S1", fingerprints),
            s2: Dataset::new("S2", s2_matrix),
            predictor,
            b1,
            b2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_silicon::pcm::PcmSuite;
    use sidefp_stats::descriptive;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            mc_samples: 40,
            kde_samples: 2000,
            ..Default::default()
        }
    }

    fn run_stage(seed: u64) -> PremanufacturingStage {
        let config = small_config();
        let mut rng = StdRng::seed_from_u64(seed);
        let bench = Testbench::random(&mut rng, 6, PcmSuite::paper_default()).unwrap();
        PremanufacturingStage::run_observed(&config, &bench, &mut rng, &RunContext::new()).unwrap()
    }

    #[test]
    fn stage_produces_paper_shaped_artifacts() {
        let stage = run_stage(1);
        assert_eq!(stage.pcms.shape(), (40, 1));
        assert_eq!(stage.s1.fingerprints().shape(), (40, 6));
        assert_eq!(stage.s2.fingerprints().shape(), (2000, 6));
        assert_eq!(stage.predictor.output_dim(), 6);
        assert_eq!(stage.b1.name(), "B1");
        assert_eq!(stage.b2.name(), "B2");
    }

    #[test]
    fn regression_explains_fingerprints_from_pcm() {
        // The crux of the method: a single delay PCM must carry real
        // information about every fingerprint coordinate.
        let stage = run_stage(2);
        let preds = stage.predictor.predict_rows(&stage.pcms).unwrap();
        for j in 0..6 {
            let r2 =
                descriptive::r_squared(&stage.s1.fingerprints().col(j), &preds.col(j)).unwrap();
            assert!(r2 > 0.3, "fingerprint {j}: R² = {r2}");
        }
    }

    #[test]
    fn s2_extends_s1_tails() {
        let stage = run_stage(3);
        let s1_max = descriptive::max(&stage.s1.fingerprints().col(0)).unwrap();
        let s2_max = descriptive::max(&stage.s2.fingerprints().col(0)).unwrap();
        assert!(s2_max > s1_max, "S2 max {s2_max} <= S1 max {s1_max}");
    }

    #[test]
    fn b1_accepts_simulated_center() {
        let stage = run_stage(4);
        let center = stage.s1.fingerprints().column_means();
        assert_eq!(
            stage.b1.classify(&center).unwrap(),
            sidefp_stats::DetectionLabel::TrojanFree
        );
    }
}
