//! Streaming-lot recalibration cost bench: incremental recalibration
//! versus full from-scratch refit on a drifting wafer-lot stream.
//!
//! Usage:
//!
//! ```text
//! drift          # print the cost table
//! drift --json   # additionally dump BENCH_drift.json
//! ```
//!
//! Two [`LotStream`](sidefp_core::LotStream)s consume bit-identical
//! drifting lots (the lot measurements are a pure function of the seed,
//! independent of the recalibration policy). The first keeps `refit_limit` high so every
//! drift alarm is absorbed by the incremental tier (warm-started SMO,
//! KMM re-weighting, KDE bandwidth refresh); the second sets
//! `refit_limit = 0`, forcing a full S3–S5 refit on every alarm. Each
//! stream's own observability context accumulates the wall-clock of the
//! `recalibrate.incremental` / `recalibrate.full_refit` spans, so the
//! reported per-action costs cover exactly the recalibration work — lot
//! measurement and boundary evaluation, common to both policies, are
//! excluded.
//!
//! Build with `--release`; the debug profile distorts the hot paths.

use std::time::Instant;

use sidefp_core::{ExperimentConfig, PaperExperiment, RecalHealth};
use sidefp_faults::{DriftClass, DriftPlan};
use sidefp_obs::RunContext;

/// Lots per stream after the calibration lot.
const LOTS: usize = 8;

/// A mid-scale configuration: large enough that the S3–S5 refit work
/// (KMM mean-shift population, KDE fit + sampling, three OCSVM solves)
/// dominates the spans, small enough for a sub-minute gate.
fn config(refit_limit: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        chips: 16,
        mc_samples: 150,
        kde_samples: 3000,
        seed: 99,
        ..Default::default()
    };
    cfg.recalibration.refit_limit = refit_limit;
    cfg
}

/// A drift plan that alarms on essentially every lot: a slow ramp from
/// lot 1 plus a modest step at lot 3, all well inside what the
/// incremental tier may absorb.
fn drift() -> DriftPlan {
    DriftPlan {
        seed: 4242,
        ..DriftPlan::none()
    }
    .with_drift(DriftClass::SlowRamp, 0.5, 1)
    .with_drift(DriftClass::MeanShift, 1.5, 3)
}

/// Accumulated milliseconds under one timing key (0 if never recorded).
fn timing_ms(obs: &RunContext, key: &str) -> f64 {
    obs.timing_snapshot()
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, ms)| *ms)
        .unwrap_or(0.0)
}

struct PolicyReport {
    health: RecalHealth,
    span_ms: f64,
    wall_ms: f64,
}

/// Streams `LOTS` drifted lots under one policy, returning the health
/// counters and the accumulated recalibration-span time.
fn run_policy(refit_limit: f64, span_key: &str) -> Result<PolicyReport, sidefp_core::CoreError> {
    let obs = RunContext::new();
    let experiment = PaperExperiment::new(config(refit_limit))?;
    let mut stream = experiment.stream_observed(drift(), &obs)?;
    let start = Instant::now();
    for _ in 0..=LOTS {
        stream.advance()?;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Ok(PolicyReport {
        health: stream.health(),
        span_ms: timing_ms(&obs, span_key),
        wall_ms,
    })
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let json = std::env::args().any(|a| a == "--json");

    eprintln!("streaming {} drifted lots under each policy ...", LOTS + 1);
    let incremental = run_policy(1e6, "recalibrate.incremental")?;
    let full = run_policy(0.0, "recalibrate.full_refit")?;

    let recals = incremental.health.recalibrated;
    // The calibration lot is itself a full refit under the same span, so
    // it contributes one representative sample to the per-refit mean.
    let refits = full.health.refitted;
    if recals < 3 {
        return Err(format!(
            "drift plan did not exercise the incremental tier: {:?}",
            incremental.health
        )
        .into());
    }
    if refits < 3 {
        return Err(format!("drift plan did not force full refits: {:?}", full.health).into());
    }

    let inc_ms = incremental.span_ms / recals as f64;
    let refit_ms = full.span_ms / refits as f64;
    let ratio = refit_ms / inc_ms;

    println!("recalibration cost per drift alarm (lot stream, {LOTS} lots + calibration):");
    println!(
        "  incremental  {:>4} actions  {:>9.2} ms total  {:>8.2} ms/action  (stream wall {:.0} ms)",
        recals, incremental.span_ms, inc_ms, incremental.wall_ms
    );
    println!(
        "  full refit   {:>4} actions  {:>9.2} ms total  {:>8.2} ms/action  (stream wall {:.0} ms)",
        refits, full.span_ms, refit_ms, full.wall_ms
    );
    println!("  cost ratio   full/incremental = {ratio:.1}x");

    if json {
        let payload = format!(
            "{{\n  \"bench\": \"drift\",\n  \"lots\": {},\n  \"recalibrated\": {},\n  \
             \"refitted\": {},\n  \"incremental_ms_per_action\": {:.3},\n  \
             \"full_refit_ms_per_action\": {:.3},\n  \"cost_ratio\": {:.3}\n}}\n",
            LOTS + 1,
            recals,
            refits,
            inc_ms,
            refit_ms,
            ratio,
        );
        std::fs::write("BENCH_drift.json", payload)?;
        println!("wrote BENCH_drift.json");
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::ExitCode::FAILURE
        }
    }
}
