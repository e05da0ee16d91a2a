//! Streaming-lot acceptance: a seeded multi-lot stream under mean-shift
//! plus slow-ramp drift, driven twice — once with the incremental
//! recalibration tier enabled, once with `refit_limit = 0` so every alarm
//! takes a full from-scratch refit. The two policies see bit-identical
//! lot measurements (the measurement RNG is decoupled from recalibration
//! sampling), so their per-lot detection tables are directly comparable:
//! incremental recalibration must track the from-scratch reference within
//! tolerance on every lot, and the Trojans planted in every lot must keep
//! alarming throughout the drift.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_core::stages::recalibrate::{LotAction, LotOutcome, LotStream};
use sidefp_core::stages::{PremanufacturingStage, SiliconStage, Testbench};
use sidefp_core::{ExperimentConfig, RecalHealth, RunContext, TrustedBoundary};
use sidefp_faults::{DriftClass, DriftPlan};

const LOTS: usize = 6;

fn config() -> ExperimentConfig {
    ExperimentConfig {
        chips: 12,
        mc_samples: 40,
        kde_samples: 1500,
        ..Default::default()
    }
}

fn drift() -> DriftPlan {
    // A one-off 2σ step at lot 2 stacked on a 0.4σ-per-lot ramp from
    // lot 1: big enough that the charts must alarm, small enough that the
    // incremental tier is allowed to absorb it.
    DriftPlan {
        seed: 2024,
        ..DriftPlan::none()
    }
    .with_drift(DriftClass::MeanShift, 2.0, 2)
    .with_drift(DriftClass::SlowRamp, 0.4, 1)
}

fn run(refit_limit: f64) -> (Vec<LotOutcome>, RecalHealth) {
    let mut cfg = config();
    cfg.recalibration.refit_limit = refit_limit;
    let mut stream = LotStream::new(cfg, drift()).expect("stream setup");
    let outcomes: Vec<LotOutcome> = (0..LOTS)
        .map(|_| stream.advance().expect("lot advance"))
        .collect();
    (outcomes, stream.health())
}

#[test]
fn incremental_recalibration_tracks_full_refits_within_tolerance() {
    let (incremental, inc_health) = run(1e6);
    let (reference, ref_health) = run(0.0);

    // Identical measurements: both policies must see the same lots, the
    // same drift ledger, and byte-identical DUTT populations.
    for (a, b) in incremental.iter().zip(&reference) {
        assert_eq!(a.lot, b.lot);
        assert_eq!(a.drift, b.drift);
        assert_eq!(
            a.dutts.fingerprints().as_slice(),
            b.dutts.fingerprints().as_slice(),
            "lot {} measured differently across policies",
            a.lot
        );
    }

    // The reference policy may never use the incremental tier; the
    // incremental policy must actually exercise it on this drift plan.
    assert_eq!(ref_health.recalibrated, 0);
    assert!(
        inc_health.recalibrated >= 2,
        "incremental tier unused: {inc_health:?}"
    );
    assert!(inc_health.refitted < ref_health.refitted);

    // Decision agreement: on every lot, each boundary's confusion counts
    // from the incrementally-maintained state stay within tolerance of
    // the from-scratch reference.
    for (a, b) in incremental.iter().zip(&reference) {
        assert_eq!(a.table1.len(), 5);
        for (ra, rb) in a.table1.iter().zip(&b.table1) {
            assert_eq!(ra.dataset, rb.dataset);
            let devices = ra.counts.infested_total() + ra.counts.free_total();
            let fp_gap = ra
                .counts
                .false_positives()
                .abs_diff(rb.counts.false_positives());
            let fn_gap = ra
                .counts
                .false_negatives()
                .abs_diff(rb.counts.false_negatives());
            let tolerance = devices / 10 + 1;
            assert!(
                fp_gap <= tolerance && fn_gap <= tolerance,
                "lot {} boundary {}: FP gap {fp_gap}, FN gap {fn_gap} \
                 (incremental {:?} vs reference {:?})",
                a.lot,
                ra.dataset,
                ra.counts,
                rb.counts
            );
        }
    }
}

#[test]
fn trojans_keep_alarming_through_drift_and_recalibration() {
    let (outcomes, health) = run(1e6);
    assert_eq!(health.lots, LOTS);
    assert_eq!(
        health.accepted + health.recalibrated + health.refitted,
        health.lots
    );
    for o in &outcomes {
        // Every lot carries 2 Trojan variants per chip; the silicon-side
        // boundary B3 (fitted or incrementally tracked) must keep catching
        // the clear majority of them at every point of the drift.
        let b3 = o
            .table1
            .iter()
            .find(|r| r.dataset == "B3")
            .expect("B3 row present");
        let missed = b3.counts.false_positives();
        let infested = b3.counts.infested_total();
        assert!(
            missed * 4 <= infested,
            "lot {}: B3 missed {missed}/{infested} Trojans after `{}`",
            o.lot,
            o.action
        );
    }
}

#[test]
fn drifted_stream_decisions_are_reproducible() {
    let (a, ha) = run(1e6);
    let (b, hb) = run(1e6);
    assert_eq!(ha, hb);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.action, y.action);
        assert_eq!(x.severity.to_bits(), y.severity.to_bits());
        assert_eq!(x.table1, y.table1);
    }
    // The drift plan must have actually perturbed the stream.
    assert!(a.iter().any(|o| !o.drift.is_empty()));
    assert!(a.iter().any(|o| o.action != LotAction::Accepted));
}

#[test]
fn calibration_lot_reproduces_the_single_shot_silicon_fit() {
    // The single-shot pipeline on the same config: the stream draws its
    // bench, pre-manufacturing stage and lot-0 measurement from the same
    // seeded RNG, and both fit S3/S4 and B3/B4 through one calibration
    // path. (S5 and B5 differ: the stream samples its KDE from its own
    // RNG stream.)
    let cfg = config();
    let ctx = RunContext::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let bench = Testbench::from_config(&cfg, &mut rng).expect("bench");
    let pre = PremanufacturingStage::run_observed(&cfg, &bench, &mut rng, &ctx).expect("pre");
    let si = SiliconStage::run_observed(&cfg, &bench, &pre, &mut rng, &ctx).expect("silicon");

    let mut stream = LotStream::new(cfg, drift()).expect("stream setup");
    let lot0 = stream.advance().expect("calibration lot");
    assert!(lot0.drift.is_empty(), "the drift plan must spare lot 0");

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(stream.s3().as_slice()),
        bits(si.s3.fingerprints().as_slice())
    );
    assert_eq!(
        bits(stream.s4().as_slice()),
        bits(si.s4.fingerprints().as_slice())
    );
    assert_eq!(bits(stream.kmm_weights()), bits(&si.kmm_weights));
    let solve = |b: &TrustedBoundary| {
        (
            b.svm().rho().to_bits(),
            b.svm().support_vector_count(),
            b.solve_iterations(),
        )
    };
    let [_, _, b3, b4, _] = stream.boundaries();
    assert_eq!(solve(b3), solve(&si.b3), "B3");
    assert_eq!(solve(b4), solve(&si.b4), "B4");
}
