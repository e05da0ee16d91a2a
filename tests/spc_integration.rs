//! Pipeline-level SPC invariants: the paired die-vs-kerf check stays quiet
//! on legitimate lots and fires on tampered monitors, at full experiment
//! scale.

use sidefp_core::spc::paired_check;
use sidefp_core::{ExperimentConfig, PaperExperiment};
use sidefp_silicon::pcm::{PcmKind, PcmTamper};

fn run(tamper: PcmTamper, seed: u64) -> sidefp_core::spc::SpcReport {
    let config = ExperimentConfig {
        seed,
        chips: 15,
        mc_samples: 60,
        kde_samples: 3000,
        pcm_tamper: tamper,
        ..Default::default()
    };
    let artifacts = PaperExperiment::new(config)
        .unwrap()
        .run_with_artifacts()
        .unwrap();
    paired_check(
        artifacts.silicon.dutts.pcms(),
        artifacts.silicon.dutts.kerf_pcms(),
        3.0,
    )
    .unwrap()
}

#[test]
fn untampered_lot_passes_paired_spc() {
    for seed in [1, 2, 3] {
        let report = run(PcmTamper::none(), seed);
        assert!(
            !report.alarm(),
            "seed {seed}: clean lot alarmed with z {:.1}",
            report.worst_zscore()
        );
    }
}

#[test]
fn three_percent_tamper_fires_paired_spc() {
    // At this reduced lot size (45 devices) the die↔kerf local mismatch
    // sets the detection floor around 2-3 %; the full-size experiment
    // (the `tamper/0.99` cell of the `sweep` bench) resolves 1 %.
    for seed in [1, 2, 3] {
        let report = run(PcmTamper::on_kind(PcmKind::PathDelay, 0.97), seed);
        assert!(
            report.alarm(),
            "seed {seed}: 3% tamper missed, z {:.1}",
            report.worst_zscore()
        );
        assert!(report.worst_zscore() > 3.0);
    }
}

#[test]
fn tamper_alarm_scales_with_magnitude() {
    let small = run(PcmTamper::on_kind(PcmKind::PathDelay, 0.99), 4);
    let large = run(PcmTamper::on_kind(PcmKind::PathDelay, 0.93), 4);
    assert!(
        large.worst_zscore() > small.worst_zscore(),
        "z did not grow: {:.1} vs {:.1}",
        small.worst_zscore(),
        large.worst_zscore()
    );
}
