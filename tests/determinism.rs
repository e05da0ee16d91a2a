//! Cross-crate determinism: the parallel hot paths must produce
//! bit-identical results at any worker count.
//!
//! Every parallel algorithm in the workspace derives its randomness from
//! per-item RNG streams forked off a seed and combines floating-point
//! reductions in fixed-width chunks, so a run is a pure function of the
//! seed — these tests pin that contract at the integration level.

use sidefp_chip::trojan::TrojanSuite;
use sidefp_core::scenario::{channel_sets, Scenario};
use sidefp_core::{ExperimentConfig, PaperExperiment, ParallelismConfig, RunContext};
use sidefp_silicon::foundry::Foundry;
use sidefp_silicon::monte_carlo::MonteCarloEngine;
use sidefp_silicon::pcm::PcmSuite;
use sidefp_silicon::{ProcessCorner, TechnologyPreset};
use sidefp_stats::{KernelMeanMatching, KmmConfig};

/// `MonteCarlo::run_streamed` yields the same sample matrix at 1 and 8
/// threads, element for element.
#[test]
fn monte_carlo_matrix_identical_across_thread_counts() {
    let engine = MonteCarloEngine::new(Foundry::nominal(), 48).unwrap();
    let suite = PcmSuite::paper_default();
    let run = |threads: usize| {
        sidefp_parallel::with_threads(threads, || {
            let (_, samples) = engine
                .run_streamed(99, |die, rng| suite.measure(die.process(), rng))
                .unwrap();
            samples
        })
    };
    let single = run(1);
    let pooled = run(8);
    assert_eq!(single.shape(), pooled.shape());
    for (a, b) in single.as_slice().iter().zip(pooled.as_slice()) {
        assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
    }
}

/// KMM importance weights agree to 1e-12 between 1 and 8 threads: the
/// Gram matrix, kappa vector and QP solve are all reduction-stable.
#[test]
fn kmm_weights_identical_across_thread_counts() {
    let engine = MonteCarloEngine::new(Foundry::nominal(), 40).unwrap();
    let suite = PcmSuite::paper_default();
    let fit = |threads: usize| {
        sidefp_parallel::with_threads(threads, || {
            let (_, train) = engine
                .run_streamed(7, |die, rng| suite.measure(die.process(), rng))
                .unwrap();
            let (_, test) = engine
                .run_streamed(8, |die, rng| suite.measure(die.process(), rng))
                .unwrap();
            KernelMeanMatching::fit(&train, &test, &KmmConfig::default())
                .unwrap()
                .weights()
                .to_vec()
        })
    };
    let single = fit(1);
    let pooled = fit(8);
    assert_eq!(single.len(), pooled.len());
    for (a, b) in single.iter().zip(&pooled) {
        assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
    }
}

/// The full reduced experiment produces identical Table-1 counts whether
/// the worker pool has 1 or 8 threads.
#[test]
fn full_experiment_identical_across_thread_counts() {
    let run = |threads: usize| {
        let config = ExperimentConfig {
            seed: 11,
            chips: 10,
            mc_samples: 40,
            kde_samples: 1200,
            parallelism: ParallelismConfig {
                threads,
                deterministic: true,
            },
            ..Default::default()
        };
        PaperExperiment::new(config).unwrap().run().unwrap()
    };
    let single = run(1);
    let pooled = run(8);
    assert_eq!(single.table1, pooled.table1);
    assert_eq!(single.golden_baseline, pooled.golden_baseline);
}

/// A run's trace and run health are the same at 1 and at 2 workers,
/// event for event: a reduced paper run, and a reduced run of the widest
/// multi-parameter stack (11 fingerprint columns, 3 PCMs), whose
/// regression bank fits its columns across the pool and must still log
/// its `model_fit` events in column order.
#[test]
fn trace_and_run_health_identical_at_one_and_two_workers() {
    let base = ExperimentConfig {
        seed: 5,
        chips: 10,
        mc_samples: 60,
        kde_samples: 3000,
        ..Default::default()
    };
    let widest = channel_sets(&base.meter).pop().unwrap();
    let wide = Scenario::new(
        widest,
        TrojanSuite::rf_leaks(base.amplitude_delta, base.frequency_delta),
        ProcessCorner::Typical,
        TechnologyPreset::paper(),
    )
    .config(&base, base.seed);
    for (name, config, columns) in [("paper", base.clone(), 6), ("wide", wide, 11)] {
        let run = |threads: usize| {
            let mut config = config.clone();
            config.parallelism.threads = threads;
            let obs = RunContext::new();
            let arts = PaperExperiment::new(config)
                .unwrap()
                .run_in_context(&obs)
                .unwrap();
            (obs.trace_jsonl(), arts.result.health, arts.result.table1)
        };
        let (one, two) = (run(1), run(2));
        let (lines_one, lines_two): (Vec<&str>, Vec<&str>) =
            (one.0.lines().collect(), two.0.lines().collect());
        assert_eq!(lines_one.len(), lines_two.len(), "{name}: event count");
        for (a, b) in lines_one.iter().zip(&lines_two) {
            assert_eq!(a, b, "{name}: trace event");
        }
        let fits = lines_one.iter().filter(|l| l.contains("model_fit")).count();
        assert_eq!(fits, columns, "{name}: one model_fit event per column");
        assert_eq!(one.1, two.1, "{name}: run health");
        assert_eq!(one.2, two.2, "{name}: Table 1");
    }
}

/// The paper-default run's KMM weights and QP health, pinned to the bits
/// the active-set solve certifies: every KMM solve of the run ends on a
/// KKT certificate, so no QP rescue is recorded. Any later change to the
/// KMM solve must update them on purpose. The bit-sum is the wrapping sum
/// of every weight's `to_bits`.
#[test]
fn paper_default_kmm_weights_are_pinned() {
    let arts = PaperExperiment::new(ExperimentConfig::default())
        .unwrap()
        .run_with_artifacts()
        .unwrap();
    let bits: Vec<u64> = arts
        .silicon
        .kmm_weights
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(bits.len(), 100);
    assert_eq!(bits[0], 0x3fff_95e3_f4f9_64aa);
    assert_eq!(bits[50], 0x3fda_0265_3fd7_5921);
    assert_eq!(bits[99], 0x3ff0_ae55_299c_6d98);
    let sum = bits.iter().fold(0u64, |acc, b| acc.wrapping_add(*b));
    assert_eq!(sum, 0xfc00_1869_de44_8b53);
    assert_eq!(arts.result.health.solvers.qp_nonconverged, 0);
    assert_eq!(arts.result.health.solvers.qp_relaxed, 0);
}
