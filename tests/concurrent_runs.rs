//! Per-run observability isolation: two experiments running concurrently
//! in one process must each observe exactly their own run.
//!
//! This is the regression test for the former process-global registries
//! (timing and solver-health): with per-run [`RunContext`]s there is no
//! shared mutable state left to cross-contaminate, so each concurrent
//! run's health report, stage-timing table and trace log must be
//! bit-identical to the same experiment run serially on its own.

use sidefp_core::{ExperimentConfig, ExperimentResult, PaperExperiment, RunContext};
use sidefp_faults::{FaultClass, FaultPlan};

/// The stage set every pipeline run times, sorted by name.
const STAGES: [&str; 13] = [
    "boundary.B1",
    "boundary.B2",
    "boundary.B3",
    "boundary.B4",
    "boundary.B5",
    "boundary.golden",
    "evaluate",
    "kde.s2",
    "kde.s5",
    "kmm",
    "mc",
    "measure",
    "regression",
];

fn config(seed: u64, plan: FaultPlan) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        chips: 10,
        mc_samples: 40,
        kde_samples: 1200,
        faults: plan,
        ..Default::default()
    }
}

/// Everything a run reports through its context: the summary result, the
/// set of timed stage names (durations are wall-clock and thus never
/// comparable bit-for-bit) and the full trace log.
struct Observed {
    result: ExperimentResult,
    stage_names: Vec<String>,
    trace: String,
}

fn run(cfg: &ExperimentConfig) -> Observed {
    let ctx = RunContext::new();
    let result = PaperExperiment::new(cfg.clone())
        .unwrap()
        .run_in_context(&ctx)
        .unwrap()
        .result;
    Observed {
        result,
        stage_names: ctx
            .timing_snapshot()
            .into_iter()
            .map(|(name, _)| name)
            .collect(),
        trace: ctx.trace_jsonl(),
    }
}

#[test]
fn concurrent_runs_observe_only_themselves() {
    // Two deliberately different runs: a clean one and a degraded one
    // (injected faults, quarantined devices), so any cross-contamination
    // of counters or trace events is visible.
    let clean_cfg = config(11, FaultPlan::none());
    let mut plan = FaultPlan::none()
        .with_fault(FaultClass::NanReading, 0.1)
        .with_fault(FaultClass::DroppedDevice, 0.1);
    plan.seed = 7;
    let faulty_cfg = config(23, plan);

    // Serial baselines, one process-idle run each.
    let clean_base = run(&clean_cfg);
    let faulty_base = run(&faulty_cfg);

    // The baselines must genuinely differ, or isolation is vacuous.
    assert!(clean_base.result.health.measurement.is_clean());
    assert!(faulty_base.result.health.measurement.injected_faults > 0);
    assert!(faulty_base.trace.contains("\"type\":\"quarantine\""));
    assert_ne!(clean_base.trace, faulty_base.trace);

    // Both runs time exactly the documented stage set.
    assert_eq!(clean_base.stage_names, STAGES);
    assert_eq!(faulty_base.stage_names, STAGES);

    // Now the same two runs concurrently in one process.
    let (clean_conc, faulty_conc) = std::thread::scope(|s| {
        let clean = s.spawn(|| run(&clean_cfg));
        let faulty = s.spawn(|| run(&faulty_cfg));
        (clean.join().unwrap(), faulty.join().unwrap())
    });

    for (concurrent, baseline) in [(&clean_conc, &clean_base), (&faulty_conc, &faulty_base)] {
        assert_eq!(concurrent.result.table1, baseline.result.table1);
        assert_eq!(
            concurrent.result.golden_baseline,
            baseline.result.golden_baseline
        );
        assert_eq!(concurrent.result.health, baseline.result.health);
        assert_eq!(concurrent.stage_names, baseline.stage_names);
        // The whole trace log — every event, field and sequence number —
        // is bit-identical to the serial run's.
        assert_eq!(concurrent.trace, baseline.trace);
    }
}
