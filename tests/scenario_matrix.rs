//! Scenario-matrix integration: the Trojan-III (dormant payload) story.
//!
//! The paper's power-only tester cannot see a triggered-but-dormant
//! payload — it modulates no transmission. A multi-parameter stack
//! (supply current + path delay + spectral on top of power) restores
//! detection: the payload's static leakage and parasitic fan-out are
//! visible to IDDT and delay testers. Both claims are asserted end-to-end
//! through the full B1–B5 flow, not on raw channel readings.

use sidefp_chip::channel::{
    ChannelSpec, ChannelStack, DelayChannel, PowerChannel, SpectralChannel, SupplyCurrentChannel,
};
use sidefp_chip::trojan::TrojanSuite;
use sidefp_core::scenario::Scenario;
use sidefp_core::{ExperimentConfig, PaperExperiment};
use sidefp_silicon::{ProcessCorner, TechnologyPreset};
use sidefp_stats::ConfusionCounts;

fn base() -> ExperimentConfig {
    ExperimentConfig {
        chips: 20,
        mc_samples: 100,
        kde_samples: 5000,
        ..Default::default()
    }
}

/// B5's counts for `cell` lowered onto `base` at its own seed.
fn b5_counts(cell: &Scenario, base: &ExperimentConfig) -> ConfusionCounts {
    let result = PaperExperiment::new(cell.config(base, base.seed))
        .unwrap()
        .run()
        .unwrap();
    result
        .table1
        .iter()
        .find(|r| r.dataset == "B5")
        .unwrap()
        .counts
}

fn multiparameter_stack(base: &ExperimentConfig) -> ChannelStack {
    ChannelStack::new(vec![
        ChannelSpec::Power(PowerChannel {
            meter: base.meter.clone(),
        }),
        ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
        ChannelSpec::Delay(DelayChannel::default()),
        ChannelSpec::Spectral(SpectralChannel::default()),
    ])
    .unwrap()
}

#[test]
fn dormant_payload_invisible_to_power_only_but_caught_by_wider_stack() {
    let base = base();
    let suite = TrojanSuite::dormant(1000);

    let power_only = Scenario::new(
        ChannelStack::power_only(base.meter.clone()),
        suite.clone(),
        ProcessCorner::Typical,
        TechnologyPreset::paper(),
    );
    let wide = Scenario::new(
        multiparameter_stack(&base),
        suite,
        ProcessCorner::Typical,
        TechnologyPreset::paper(),
    );

    let b5_power = b5_counts(&power_only, &base);
    let b5_wide = b5_counts(&wide, &base);
    let infested = b5_power.infested_total();
    assert_eq!(infested, 20);

    // Power-only: the payload modulates no transmission, so the calibrated
    // boundary accepts essentially every infested device (FP = missed
    // Trojans) while correctly accepting the genuine ones.
    assert!(
        b5_power.false_positives() >= infested * 8 / 10,
        "power-only B5 should miss the dormant payload: FP {}/{}",
        b5_power.false_positives(),
        infested
    );
    assert!(
        b5_power.false_negatives() <= b5_power.free_total() / 4,
        "power-only B5 should still accept genuine devices: FN {}/{}",
        b5_power.false_negatives(),
        b5_power.free_total()
    );

    // Multi-parameter: IDDT + delay expose the payload's leakage and
    // parasitic loading; most infested devices are now flagged, and the
    // boundary is not trivially rejecting everything.
    assert!(
        b5_wide.false_positives() <= infested * 3 / 10,
        "wider stack B5 should catch the dormant payload: FP {}/{}",
        b5_wide.false_positives(),
        infested
    );
    assert!(
        b5_wide.false_negatives() < b5_wide.free_total(),
        "wider stack B5 rejects every genuine device: FN {}/{}",
        b5_wide.false_negatives(),
        b5_wide.free_total()
    );
}

#[test]
fn always_on_trojans_remain_detected_with_the_wider_stack() {
    // Widening the tester must not lose the paper's two RF-leak Trojans.
    let base = base();
    let wide = Scenario::new(
        multiparameter_stack(&base),
        TrojanSuite::rf_leaks(base.amplitude_delta, base.frequency_delta),
        ProcessCorner::Typical,
        TechnologyPreset::paper(),
    );
    let b5 = b5_counts(&wide, &base);
    assert!(
        b5.false_positives() <= b5.infested_total() / 10,
        "B5 missed {}/{} RF-leak Trojans",
        b5.false_positives(),
        b5.infested_total()
    );
}
