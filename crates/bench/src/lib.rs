//! Shared helpers for the benchmark harness binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation artifacts
//! and the committed `BENCH_*.json` records:
//!
//! - `table1` — Table 1 (FP/FN of B1–B5 + golden baseline, ROC/AUC, MMD
//!   certification, bootstrap CIs; writes `target/table1.md`),
//! - `fig4` — Figure 4 (PCA projections; CSV + SVG under `target/fig4/`),
//! - `wafermap` — spatial map of verdicts (ASCII + SVG),
//! - `sweep` — every ablation and extension setting (foundry drift, KDE,
//!   KMM, SVM, Monte Carlo size, PCM suite, regressor, calibration grid,
//!   tester temperature, PCM tampering, and the channel stack × Trojan
//!   suite × process corner scenario grid) at 16 seeds; writes
//!   `BENCH_seeds.json`,
//! - `drift` — incremental recalibration versus full refit on a drifting
//!   lot stream; writes `BENCH_drift.json`,
//! - `throughput` — fit-once, score-many batch throughput; writes
//!   `BENCH_throughput.json`,
//! - `score-server` — a long-lived scoring process over a saved artifact,
//! - `trace-timeline` — renders a run's JSONL trace as a span timeline,
//! - `diagnose` — the stage-by-stage tool used to calibrate the synthetic
//!   fab against the paper's Table-1 shape,
//! - `bench-gate` — the typed checks of the committed `BENCH_*.json`
//!   records, which the binaries write through [`record`].
//!
//! Every binary checks its command line through [`args`] before it does
//! any work. The criterion benches in `benches/` measure components and
//! the packed GEMM; timings of the whole pipeline come from the separate
//! `benchmark` package.

#![warn(missing_docs)]

pub mod args;
pub mod plot;
pub mod record;

use std::time::Instant;

use sidefp_core::ExperimentConfig;

/// Runs a closure, printing its wall-clock duration.
///
/// # Example
///
/// ```
/// let value = sidefp_bench::timed("demo", || 2 + 2);
/// assert_eq!(value, 4);
/// ```
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[{label}] completed in {:.2?}", start.elapsed());
    out
}

/// Unwraps a `Result`, printing the error and exiting with status 1
/// instead of panicking.
///
/// Bench binaries are user-facing tools: a failed fit or a bad config
/// should produce one readable error line and a nonzero exit code, not
/// a panic backtrace. Use `?` where the caller already returns a
/// `Result`; this helper covers closures (timing loops, iterator
/// chains) where `?` cannot propagate.
pub fn or_die<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(value) => value,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// `config` at the reduced sizing of the `--smoke` runs (10 chips, 40
/// Monte Carlo samples, 1,200 KDE samples): the full B1–B5 flow at a
/// fraction of the paper-size cost.
pub fn smoke_sized(config: ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        chips: 10,
        mc_samples: 40,
        kde_samples: 1200,
        ..config
    }
}

/// Formats a float series as a compact comma-separated string.
pub fn format_series(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.5}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_closure_value() {
        assert_eq!(timed("t", || 41 + 1), 42);
    }

    #[test]
    fn or_die_passes_ok_values_through() {
        let ok: Result<i32, String> = Ok(7);
        assert_eq!(or_die(ok), 7);
    }

    #[test]
    fn format_series_joins_with_commas() {
        assert_eq!(format_series(&[1.0, 2.5]), "1.00000,2.50000");
        assert_eq!(format_series(&[]), "");
    }
}
