//! Integration tests for the fit/score artifact split: codec round-trip
//! fidelity, typed rejection of every corrupted artifact, and the two
//! bit-identity guarantees (load-from-artifact vs in-process fit, and
//! thread-count invariance of batch scoring).

use std::sync::OnceLock;

use proptest::prelude::*;
use sidefp_chip::trojan::TrojanSuite;
use sidefp_core::scenario::{channel_sets, Scenario};
use sidefp_core::{
    ArtifactError, BatchScorer, CoreError, ExperimentConfig, FittedModel, RunContext,
    ARTIFACT_VERSION,
};
use sidefp_parallel::{map_indexed, with_threads};
use sidefp_silicon::{ProcessCorner, TechnologyPreset};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        chips: 10,
        mc_samples: 40,
        kde_samples: 1200,
        ..Default::default()
    }
}

/// One fit shared by every test in this file: the model plus its encoded
/// artifact. Fitting dominates the suite's wall-clock, so pay it once.
fn fitted() -> &'static (FittedModel, Vec<u8>) {
    static FIT: OnceLock<(FittedModel, Vec<u8>)> = OnceLock::new();
    FIT.get_or_init(|| {
        let model = FittedModel::fit(&tiny_config()).expect("tiny fit");
        let bytes = model.to_bytes();
        (model, bytes)
    })
}

/// Scores one synthesized batch and returns the decision bits of every
/// kept device for every boundary, plus the verdict pattern.
fn score_bits(model: &FittedModel, seed: u64, devices: usize) -> (Vec<u64>, Vec<bool>) {
    let mut scorer = BatchScorer::new(model);
    let (fps, pcms) = model.synthesize_batch(seed, devices);
    let ctx = RunContext::new();
    let batch = scorer.score_batch(&fps, &pcms, &ctx).expect("score");
    let bits = batch
        .decisions
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let verdicts = batch
        .verdicts
        .iter()
        .map(|v| *v == sidefp_stats::DetectionLabel::TrojanFree)
        .collect();
    (bits, verdicts)
}

#[test]
fn artifact_round_trip_is_byte_exact() {
    let (_, bytes) = fitted();
    let reloaded = FittedModel::from_bytes(bytes).expect("decode");
    assert_eq!(&reloaded.to_bytes(), bytes, "re-encode must be byte-exact");
}

/// The tiny fit's artifact bytes are pinned: any change to a fit stage,
/// to the state the artifact adopts from it, or to the codec shows here.
/// A deliberate change re-pins the checksum.
#[test]
fn tiny_artifact_bytes_are_pinned() {
    let (_, bytes) = fitted();
    // FNV-1a 64 over the whole encoded artifact, header and footer included.
    let checksum = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(bytes.len(), 34_334);
    assert_eq!(checksum, 0xb4a9_94da_018a_961c, "got {checksum:#018x}");
}

#[test]
fn loaded_model_scores_bit_identically_to_the_in_process_fit() {
    let (model, bytes) = fitted();
    let reloaded = FittedModel::from_bytes(bytes).expect("decode");
    let (fit_bits, fit_verdicts) = score_bits(model, 77, 200);
    let (load_bits, load_verdicts) = score_bits(&reloaded, 77, 200);
    assert_eq!(
        fit_bits, load_bits,
        "decision values drifted through the codec"
    );
    assert_eq!(fit_verdicts, load_verdicts);
}

#[test]
fn scoring_is_bit_identical_across_thread_counts() {
    let (model, _) = fitted();
    let run = |threads: usize| -> Vec<(Vec<u64>, Vec<bool>)> {
        with_threads(threads, || {
            map_indexed(4, |b| score_bits(model, 1000 + b as u64, 64))
        })
    };
    assert_eq!(run(1), run(8), "thread fan-out perturbed a verdict");
}

#[test]
fn version_bump_is_rejected_with_the_typed_error() {
    let (_, bytes) = fitted();
    let mut bumped = bytes.clone();
    bumped[4..8].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
    match FittedModel::from_bytes(&bumped) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, ARTIFACT_VERSION + 1);
            assert_eq!(supported, ARTIFACT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn every_truncation_point_is_rejected_as_truncated() {
    let (_, bytes) = fitted();
    // Every header prefix plus a spread of payload prefixes: a strict
    // prefix must always surface as `Truncated`, never a panic or a
    // misdecoded model.
    let mut cuts: Vec<usize> = (0..16.min(bytes.len())).collect();
    cuts.extend((1..16).map(|i| i * bytes.len() / 16));
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        match FittedModel::from_bytes(&bytes[..cut]) {
            Err(ArtifactError::Truncated { .. }) => {}
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (_, bytes) = fitted();
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        FittedModel::from_bytes(&padded),
        Err(ArtifactError::Invalid { .. })
    ));
}

#[test]
fn load_surfaces_io_errors_with_the_path() {
    match FittedModel::load("/nonexistent/fitted_model.sfpa") {
        Err(ArtifactError::Io { path, .. }) => assert!(path.contains("nonexistent")),
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn wide_stack_model_round_trips_and_scores() {
    // The widest scenario stack (power + IDDT + delay + spectral) measures
    // 11 fingerprint columns, more than the 6 `fingerprint_blocks` of the
    // power-only default; the artifact must record the fitted width.
    let base = tiny_config();
    let widest = channel_sets(&base.meter).pop().expect("a channel stack");
    let config = Scenario::new(
        widest,
        TrojanSuite::rf_leaks(base.amplitude_delta, base.frequency_delta),
        ProcessCorner::Typical,
        TechnologyPreset::paper(),
    )
    .config(&base, base.seed);
    let model = FittedModel::fit(&config).expect("wide fit");
    assert_eq!(model.fingerprint_dim(), 11);
    let reloaded = FittedModel::from_bytes(&model.to_bytes()).expect("decode");
    assert_eq!(reloaded.fingerprint_dim(), 11);
    let (fps, pcms) = reloaded.synthesize_batch(5, 32);
    let batch = BatchScorer::new(&reloaded)
        .score_batch(&fps, &pcms, &RunContext::new())
        .expect("score");
    assert_eq!(batch.verdicts.len(), batch.decisions.nrows());
    assert!(!batch.verdicts.is_empty());
}

#[test]
fn artifact_errors_convert_into_core_errors() {
    let e: CoreError = ArtifactError::BadMagic.into();
    assert!(e.to_string().contains("artifact"));
    assert!(std::error::Error::source(&e).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single byte anywhere in the artifact must yield a
    /// typed error — never a panic, never a silently different model.
    /// Header flips surface as BadMagic / UnsupportedVersion / Truncated
    /// / Invalid; payload and checksum flips as Corrupted.
    #[test]
    fn any_single_byte_flip_is_rejected_typed(pos_frac in 0.0_f64..1.0, bit in 0_u32..8) {
        let (_, bytes) = fitted();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 1u8 << bit;
        match FittedModel::from_bytes(&corrupted) {
            Err(
                ArtifactError::BadMagic
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::Corrupted { .. }
                | ArtifactError::Invalid { .. },
            ) => {}
            Ok(_) => panic!("byte {pos} bit {bit}: corruption decoded successfully"),
            Err(other) => panic!("byte {pos} bit {bit}: unexpected error {other:?}"),
        }
    }
}
