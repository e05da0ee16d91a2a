//! Stage 2: silicon measurement (paper §2.2).
//!
//! Fabricates the DUTT lot at the *shifted* foundry operating point (each
//! chip hosting every configured Trojan variant — by default a Trojan-free
//! and two Trojan-infested versions of the design), measures every
//! device's PCMs and fingerprints, and constructs the silicon-anchored
//! datasets and boundaries:
//!
//! - **S3 / B3**: fingerprints predicted from the DUTTs' measured PCMs,
//! - **S4 / B4**: fingerprints predicted from the KMM-calibrated simulated
//!   PCM population,
//! - **S5 / B5**: KDE tail enhancement of S4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_chip::device::WirelessCryptoIc;
use sidefp_linalg::Matrix;
use sidefp_silicon::foundry::{Die, Foundry};
use sidefp_silicon::wafer::WaferMap;
use sidefp_stats::kde::AdaptiveKde;
use sidefp_stats::{DetectionLabel, KernelMeanMatching};

use sidefp_obs::{RunContext, TraceEvent};

use crate::boundary::TrustedBoundary;
use crate::config::ExperimentConfig;
use crate::dataset::{Dataset, DuttPopulation};
use crate::health::MeasurementHealth;
use crate::stages::sanitize::sanitize_measurements;
use crate::stages::{PremanufacturingStage, Testbench};
use crate::CoreError;

/// Products of the silicon measurement stage.
#[derive(Debug)]
pub struct SiliconStage {
    /// The fabricated devices under Trojan test with their measurements.
    pub dutts: DuttPopulation,
    /// What the fault injector corrupted and the sanitizer repaired or
    /// quarantined on the way from the tester to [`SiliconStage::dutts`].
    pub health: MeasurementHealth,
    /// Dataset S3: fingerprints predicted from the DUTTs' own PCMs.
    pub s3: Dataset,
    /// Dataset S4: fingerprints predicted from KMM-shifted simulation PCMs.
    pub s4: Dataset,
    /// Dataset S5: KDE enhancement of S4.
    pub s5: Dataset,
    /// Boundary from S3.
    pub b3: TrustedBoundary,
    /// Boundary from S4.
    pub b4: TrustedBoundary,
    /// Boundary from S5.
    pub b5: TrustedBoundary,
    /// The KMM importance weights on the simulated PCM population.
    pub kmm_weights: Vec<f64>,
    /// The adaptive KDE fitted on S4, which S5 was sampled from.
    pub kde: AdaptiveKde,
}

/// One lot's raw tester output, before fault injection and sanitization.
///
/// The streaming-lot driver splits measurement from assembly so synthetic
/// drift can be applied to the raw matrices in between — exactly where a
/// real process excursion would enter the data.
#[derive(Debug)]
pub(crate) struct RawLotMeasurement {
    /// Raw device fingerprints, one row per fabricated device.
    pub fingerprints: Matrix,
    /// Raw on-die PCM readings.
    pub pcms: Matrix,
    /// Raw scribe-line (kerf) PCM readings.
    pub kerf_pcms: Matrix,
    /// Ground-truth Trojan labels, by raw row.
    pub labels: Vec<DetectionLabel>,
    /// Variant tags (e.g. "free"/"amplitude"/"frequency"), by raw row.
    pub tags: Vec<&'static str>,
    /// Die positions, by raw row.
    pub positions: Vec<sidefp_silicon::wafer::DiePosition>,
}

/// The post-measurement silicon fit (paper §2.2) on one DUTT population:
/// the datasets, the calibration state and the three boundaries.
pub(crate) struct SiliconFit {
    /// S3: fingerprints predicted from the DUTTs' own PCMs.
    pub s3: Matrix,
    /// S4: fingerprints predicted from the KMM-shifted simulation PCMs.
    pub s4: Matrix,
    /// S5: KDE enhancement of S4.
    pub s5: Matrix,
    /// The mean-shift-calibrated simulation PCM population, in the
    /// regression's coordinate space.
    pub shifted: Matrix,
    /// KMM fitted on `shifted` against the DUTT PCMs.
    pub kmm: KernelMeanMatching,
    /// The KDE fitted on S4, which S5 is sampled from.
    pub kde: AdaptiveKde,
    /// Boundary from S3.
    pub b3: TrustedBoundary,
    /// Boundary from S4.
    pub b4: TrustedBoundary,
    /// Boundary from S5.
    pub b5: TrustedBoundary,
}

/// Fits S3–S5 and B3–B5 to a measured DUTT population: the one
/// calibration path of both [`SiliconStage::run_observed`] and the lot
/// stream's full refit. S5 is sampled from the S4 KDE on per-row
/// parallel RNG streams forked from `kde_seed`; the `kmm` and `kde.s5`
/// spans and every boundary fit record into `obs`.
///
/// # Errors
///
/// Propagates regression, KMM, KDE and SVM errors, and
/// [`CoreError::InvalidConfig`] for non-positive PCMs in log space.
pub(crate) fn fit_silicon(
    config: &ExperimentConfig,
    pre: &PremanufacturingStage,
    dutts: &DuttPopulation,
    kde_seed: u64,
    obs: &RunContext,
) -> Result<SiliconFit, CoreError> {
    // S3: predict golden fingerprints from the silicon PCMs.
    let s3 = pre.predictor.predict_rows(dutts.pcms())?;
    let b3 = TrustedBoundary::fit_observed("B3", &s3, &config.boundary, config.seed ^ 0xb3, obs)?;

    // S4: calibrate the simulated PCM population to the silicon operating
    // point via the iterated kernel mean shift, then push through the
    // regressions. The shift runs in the regression's coordinate space.
    // (The final KMM fit also yields the importance weights we report.)
    let space = config.regression_space;
    let sim_pcms = space.to_shift_space(&pre.pcms)?;
    let si_pcms = space.to_shift_space(dutts.pcms())?;
    let kmm_span = obs.span("kmm");
    let shifted = KernelMeanMatching::mean_shift_population_observed(
        &sim_pcms,
        &si_pcms,
        &config.kmm,
        config.kmm_iterations,
        obs,
    )?;
    let kmm = KernelMeanMatching::fit_observed(&shifted, &si_pcms, &config.kmm, obs)?;
    drop(kmm_span);
    let s4 = pre.predictor.predict_rows(&space.to_pcm_units(&shifted))?;
    let b4 = TrustedBoundary::fit_observed("B4", &s4, &config.boundary, config.seed ^ 0xb4, obs)?;

    // S5: KDE tail enhancement of S4.
    let kde_span = obs.span("kde.s5");
    let kde = AdaptiveKde::fit_observed(&s4, &config.kde, obs)?;
    let s5 = kde.sample_matrix_streamed(kde_seed, config.kde_samples);
    drop(kde_span);
    let b5 = TrustedBoundary::fit_observed(
        "B5",
        &s5,
        &config.enhanced_boundary,
        config.seed ^ 0xb5,
        obs,
    )?;

    Ok(SiliconFit {
        s3,
        s4,
        s5,
        shifted,
        kmm,
        kde,
        b3,
        b4,
        b5,
    })
}

impl SiliconStage {
    /// Runs the stage, recording into the caller's [`RunContext`] `obs`:
    /// the `measure`/`kmm`/`kde.s5` spans, the B3–B5 boundary fits, every
    /// solver rescue and each quarantined device land on the run's own
    /// timings, counters and trace ring.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidConfig`] if the requested chip count exceeds
    ///   the lot capacity.
    /// - Propagates fabrication, regression, KMM, KDE and SVM errors.
    pub fn run_observed<R: Rng>(
        config: &ExperimentConfig,
        bench: &Testbench,
        pre: &PremanufacturingStage,
        rng: &mut R,
        obs: &RunContext,
    ) -> Result<Self, CoreError> {
        // The raw tester matrices pass through the configured fault
        // injector (a no-op by default) and the measurement sanitizer, so
        // the fit only ever sees finite, positive-PCM, one-row-per-device
        // data.
        let measure_span = obs.span("measure");
        let raw = Self::measure_raw_lot(config, bench, rng)?;
        let (dutts, health) = Self::assemble_lot(config, raw, obs)?;
        drop(measure_span);
        let fit = fit_silicon(config, pre, &dutts, rng.next_u64(), obs)?;
        Ok(SiliconStage {
            dutts,
            health,
            s3: Dataset::new("S3", fit.s3),
            s4: Dataset::new("S4", fit.s4),
            s5: Dataset::new("S5", fit.s5),
            b3: fit.b3,
            b4: fit.b4,
            b5: fit.b5,
            kmm_weights: fit.kmm.weights().to_vec(),
            kde: fit.kde,
        })
    }

    /// Fabricates one lot and measures all `chips × variants` raw devices,
    /// without any fault injection or sanitization.
    pub(crate) fn measure_raw_lot<R: Rng>(
        config: &ExperimentConfig,
        bench: &Testbench,
        rng: &mut R,
    ) -> Result<RawLotMeasurement, CoreError> {
        let foundry =
            Foundry::with_shift(config.process_shift).with_sigma_scale(config.fab_sigma_scale)?;
        let map = WaferMap::grid(8);
        let lot = foundry.fabricate_lot(rng, config.wafers_per_lot, &map);
        if lot.len() < config.chips {
            return Err(CoreError::InvalidConfig {
                name: "chips",
                reason: format!(
                    "lot capacity {} (wafers_per_lot={}) below requested {} chips",
                    lot.len(),
                    config.wafers_per_lot,
                    config.chips
                ),
            });
        }
        // Evenly stride across the lot so chips sample all wafers/positions.
        let stride = lot.len() as f64 / config.chips as f64;
        let dies: Vec<&Die> = (0..config.chips)
            .map(|i| &lot[(i as f64 * stride) as usize])
            .collect();

        let variants = config.trojan_variants();
        let k = variants.len();

        let n = config.device_count();
        let nm = bench.fingerprint_width();
        let np = bench.pcm_suite().len();
        let env = config.test_environment;

        // Tester-floor measurements fan out across devices, each on its
        // own RNG stream forked from a seed drawn here — the lot keeps a
        // single fabrication stream, but the `chips × variants` device
        // measurements are independent and embarrassingly parallel.
        let meas_seed = rng.next_u64();
        let measured = sidefp_parallel::map_indexed(n, |row| {
            let die = dies[row / k];
            let (trojan, _, _) = variants[row % k];
            let mut rng = StdRng::seed_from_u64(sidefp_parallel::fork_seed(meas_seed, row as u64));
            let device = WirelessCryptoIc::new_at(die.process().clone(), bench.key(), trojan, &env);
            let fp = bench
                .channels()
                .fingerprint(&device, bench.plan(), &mut rng);
            // On-die PCM structure: same die, fresh measurement noise,
            // same tester environment, possibly through adversarially
            // modified monitors.
            let pcm = bench.pcm_suite().measure_detailed(
                die.process(),
                &env,
                &config.pcm_tamper,
                &mut rng,
            );
            // Scribe-line structures sit outside the product layout —
            // the attacker cannot touch them.
            let kerf = bench.pcm_suite().measure_detailed(
                die.kerf_process(),
                &env,
                &sidefp_silicon::pcm::PcmTamper::none(),
                &mut rng,
            );
            (fp, pcm, kerf)
        });

        let mut fingerprints = Matrix::zeros(n, nm);
        let mut pcms = Matrix::zeros(n, np);
        let mut kerf_pcms = Matrix::zeros(n, np);
        let mut labels = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        for (row, (fp, pcm, kerf)) in measured.iter().enumerate() {
            let die = dies[row / k];
            let (_, label, tag) = variants[row % k];
            fingerprints.row_mut(row).copy_from_slice(fp);
            pcms.row_mut(row).copy_from_slice(pcm);
            kerf_pcms.row_mut(row).copy_from_slice(kerf);
            labels.push(label);
            tags.push(tag);
            positions.push(die.position());
        }

        Ok(RawLotMeasurement {
            fingerprints,
            pcms,
            kerf_pcms,
            labels,
            tags,
            positions,
        })
    }

    /// Injects configured faults, sanitizes, and assembles the raw lot
    /// measurement into a quarantine-consistent [`DuttPopulation`].
    pub(crate) fn assemble_lot(
        config: &ExperimentConfig,
        raw: RawLotMeasurement,
        obs: &RunContext,
    ) -> Result<(DuttPopulation, MeasurementHealth), CoreError> {
        let RawLotMeasurement {
            mut fingerprints,
            mut pcms,
            kerf_pcms,
            labels,
            tags,
            positions,
        } = raw;
        // Corrupt (if a fault plan is configured), then sanitize. The
        // injection is seeded by the plan, not the tester RNG, so the same
        // fault plan hits the same coordinates regardless of threading.
        let injected = if config.faults.is_none() {
            0
        } else {
            config.faults.inject(&mut fingerprints, &mut pcms)?.total()
        };
        let sanitized = sanitize_measurements(&fingerprints, &pcms, &config.sanitizer)?;
        let mut health = sanitized.health;
        health.injected_faults = injected;
        // Quarantine decisions are load-bearing for the result (whole
        // devices vanish from every downstream dataset); pin each one in
        // the trace. The sanitizer is sequential and deterministic, so the
        // events are too.
        for q in &health.quarantined {
            obs.trace(TraceEvent::Quarantine {
                device: q.index,
                reason: q.reason.to_string(),
            });
        }

        // Quarantine drops whole devices: every per-device side table must
        // shrink with the measurement matrices.
        let kept = &sanitized.kept;
        let kerf_pcms = kerf_pcms.select_rows(kept);
        let labels = kept.iter().map(|&i| labels[i]).collect();
        let tags = kept.iter().map(|&i| tags[i]).collect();
        let positions = kept.iter().map(|&i| positions[i]).collect();
        let dutts = DuttPopulation::with_kerf(
            sanitized.fingerprints,
            sanitized.pcms,
            kerf_pcms,
            labels,
            tags,
        )?
        .with_positions(positions)?;
        Ok((dutts, health))
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
            chips: 12,
            mc_samples: 40,
            kde_samples: 1500,
            ..Default::default()
        }
    }

    fn run_stages(seed: u64) -> (PremanufacturingStage, SiliconStage, ExperimentConfig) {
        let config = small_config();
        let mut rng = StdRng::seed_from_u64(seed);
        let bench = Testbench::random(&mut rng, 6, PcmSuite::paper_default()).unwrap();
        let pre =
            PremanufacturingStage::run_observed(&config, &bench, &mut rng, &RunContext::new())
                .unwrap();
        let silicon =
            SiliconStage::run_observed(&config, &bench, &pre, &mut rng, &RunContext::new())
                .unwrap();
        (pre, silicon, config)
    }

    #[test]
    fn stage_shapes_match_paper_structure() {
        let (_, silicon, config) = run_stages(1);
        assert!(silicon.health.is_clean(), "{:?}", silicon.health);
        assert_eq!(silicon.dutts.len(), config.device_count());
        assert_eq!(silicon.s3.fingerprints().nrows(), config.device_count());
        assert_eq!(silicon.s4.fingerprints().nrows(), config.mc_samples);
        assert_eq!(silicon.s5.fingerprints().nrows(), config.kde_samples);
        assert_eq!(silicon.kmm_weights.len(), config.mc_samples);
        assert_eq!(silicon.dutts.free_indices().len(), config.chips);
    }

    #[test]
    fn process_shift_separates_pcm_distributions() {
        // The DUTT PCMs must visibly differ from the simulation PCMs —
        // otherwise there is nothing for KMM to fix.
        let (pre, silicon, _) = run_stages(2);
        let sim_mean = descriptive::mean(&pre.pcms.col(0)).unwrap();
        let si_mean = descriptive::mean(&silicon.dutts.pcms().col(0)).unwrap();
        let sim_sd = descriptive::std_dev(&pre.pcms.col(0)).unwrap();
        assert!(
            (si_mean - sim_mean).abs() > sim_sd * 0.5,
            "shift {} vs sim sd {}",
            si_mean - sim_mean,
            sim_sd
        );
    }

    #[test]
    fn kmm_calibration_centers_s4_on_the_silicon_population() {
        let (pre, silicon, _) = run_stages(3);
        // S4 (predictions from the mean-shift-calibrated simulation PCMs)
        // must land on the same operating point as S3 (predictions from
        // the real silicon PCMs) — far from the raw simulation's S1.
        for j in 0..6 {
            let s3_mean = descriptive::mean(&silicon.s3.fingerprints().col(j)).unwrap();
            let s4_mean = descriptive::mean(&silicon.s4.fingerprints().col(j)).unwrap();
            let s1_mean = descriptive::mean(&pre.s1.fingerprints().col(j)).unwrap();
            let s3_sd = descriptive::std_dev(&silicon.s3.fingerprints().col(j)).unwrap();
            assert!(
                (s4_mean - s3_mean).abs() < 2.0 * s3_sd,
                "col {j}: S4 mean {s4_mean} vs S3 mean {s3_mean} (sd {s3_sd})"
            );
            assert!(
                (s4_mean - s3_mean).abs() < (s1_mean - s3_mean).abs(),
                "col {j}: S4 not closer to silicon than raw S1"
            );
        }
    }

    #[test]
    fn injected_faults_are_sanitized_and_reported() {
        let mut config = small_config();
        config.faults =
            sidefp_faults::FaultPlan::single(sidefp_faults::FaultClass::NanReading, 0.2, 99);
        let mut rng = StdRng::seed_from_u64(6);
        let bench = Testbench::random(&mut rng, 6, PcmSuite::paper_default()).unwrap();
        let pre =
            PremanufacturingStage::run_observed(&config, &bench, &mut rng, &RunContext::new())
                .unwrap();
        let silicon =
            SiliconStage::run_observed(&config, &bench, &pre, &mut rng, &RunContext::new())
                .unwrap();
        assert!(silicon.health.injected_faults > 0);
        assert!(!silicon.health.is_clean());
        // Whatever the injector did, the population the boundaries see is
        // finite and strictly positive where it must be.
        assert!(silicon
            .dutts
            .fingerprints()
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        assert!(silicon.dutts.pcms().as_slice().iter().all(|v| *v > 0.0));
    }

    #[test]
    fn lot_capacity_checked() {
        let mut config = small_config();
        config.chips = 10_000;
        let mut rng = StdRng::seed_from_u64(4);
        let bench = Testbench::random(&mut rng, 6, PcmSuite::paper_default()).unwrap();
        let pre =
            PremanufacturingStage::run_observed(&config, &bench, &mut rng, &RunContext::new())
                .unwrap();
        assert!(
            SiliconStage::run_observed(&config, &bench, &pre, &mut rng, &RunContext::new())
                .is_err()
        );
    }

    #[test]
    fn trojan_versions_share_die_but_differ_in_fingerprint() {
        let (_, silicon, _) = run_stages(5);
        // Rows 0..3 belong to the first die: free, amplitude, frequency.
        let free = silicon.dutts.fingerprints().row(0);
        let amp = silicon.dutts.fingerprints().row(1);
        let freq = silicon.dutts.fingerprints().row(2);
        // Amplitude Trojan raises power; frequency Trojan lowers it.
        let free_mean: f64 = free.iter().sum::<f64>() / 6.0;
        let amp_mean: f64 = amp.iter().sum::<f64>() / 6.0;
        let freq_mean: f64 = freq.iter().sum::<f64>() / 6.0;
        assert!(amp_mean > free_mean, "amp {amp_mean} vs free {free_mean}");
        assert!(
            freq_mean < free_mean,
            "freq {freq_mean} vs free {free_mean}"
        );
        assert_eq!(
            silicon.dutts.variants()[..3],
            ["free", "amplitude", "frequency"]
        );
    }
}
