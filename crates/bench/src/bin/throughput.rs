//! Sustained batch-scoring throughput bench for the fit/score split.
//!
//! Usage:
//!
//! ```text
//! throughput                  # print the throughput table
//! throughput --json           # additionally dump BENCH_throughput.json
//! throughput --batches 20     # override the batch count
//! throughput --batch-size N   # override devices per batch
//! ```
//!
//! Fits one [`FittedModel`] at the paper's default experiment scale
//! (timed: this is the amortized cost a tester pays once per artifact),
//! measures the artifact's encoded size, then streams wafer-lot-sized
//! synthesized batches through a single [`BatchScorer`]. Reported:
//!
//! - sustained chips/sec over all scored batches,
//! - p50 / p99 per-batch latency (the long-lived-service number),
//! - artifact bytes per scored chip (how the one-time transfer cost
//!   amortizes across a lot stream),
//! - the amortization ratio: full-pipeline classification cost per chip
//!   (fit wall / devices classified by the fit) versus marginal scoring
//!   cost per chip. The committed baseline must keep this ≥ 100× — that
//!   is the whole point of shipping an artifact instead of refitting.
//!
//! Build with `--release`; the debug profile distorts the hot paths.

use std::time::Instant;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::record::{self, Value};
use sidefp_core::{BatchScorer, ExperimentConfig, FittedModel, RunContext};

/// Default batches per run.
const BATCHES: usize = 12;

/// Default devices per synthesized batch (wafer-lot scale).
const BATCH_DEVICES: usize = 25_000;

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&Spec {
        usage: "throughput [--json] [--batches N] [--batch-size N]",
        switches: &["--json"],
        options: &[("--batches", Kind::Number), ("--batch-size", Kind::Number)],
        positional: (0, Kind::Text),
    });
    let json = args.switch("--json");
    let batches = args.number("--batches").map_or(BATCHES, |n| n as usize);
    let batch_devices = args
        .number("--batch-size")
        .map_or(BATCH_DEVICES, |n| n as usize);

    let cfg = ExperimentConfig::default();
    let devices_per_fit = cfg.device_count();

    eprintln!("fitting the paper-scale model once ...");
    let fit_start = Instant::now();
    let model = FittedModel::fit(&cfg)?;
    let fit_ms = fit_start.elapsed().as_secs_f64() * 1000.0;
    let artifact_bytes = model.to_bytes().len();

    let mut scorer = BatchScorer::new(&model);
    let ctx = RunContext::new();

    // Warm-up batch: pulls the workspace buffers into their steady-state
    // sizes so the timed batches measure the pooled path.
    let (fps, pcms) = model.synthesize_batch(1, batch_devices);
    scorer.score_batch(&fps, &pcms, &ctx)?;

    eprintln!("scoring {batches} batches of {batch_devices} devices ...");
    let mut batch_ms: Vec<f64> = Vec::with_capacity(batches);
    let mut scored = 0usize;
    let mut flagged = 0usize;
    let run_start = Instant::now();
    for b in 0..batches {
        let (fps, pcms) = model.synthesize_batch(100 + b as u64, batch_devices);
        let start = Instant::now();
        let result = scorer.score_batch(&fps, &pcms, &ctx)?;
        batch_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        scored += result.kept.len();
        flagged += result.flagged();
    }
    let score_ms = run_start.elapsed().as_secs_f64() * 1000.0;

    let mut sorted = batch_ms.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    let p50 = pct(0.50);
    let p99 = pct(0.99);

    let chips_per_sec = scored as f64 / (score_ms / 1000.0);
    let score_ms_per_chip = score_ms / scored as f64;
    let full_pipeline_ms_per_chip = fit_ms / devices_per_fit as f64;
    let amortization = full_pipeline_ms_per_chip / score_ms_per_chip;
    let bytes_per_chip = artifact_bytes as f64 / scored as f64;

    println!("fit-once / score-millions throughput (paper-default model):");
    println!(
        "  fit (once)        {fit_ms:10.1} ms   ({devices_per_fit} devices classified in-fit)"
    );
    println!("  artifact size     {artifact_bytes:10} bytes");
    println!("  batches           {batches:10}   x {batch_devices} devices");
    println!("  scored            {scored:10} chips   ({flagged} flagged)");
    println!("  throughput        {chips_per_sec:10.0} chips/sec sustained");
    println!("  batch latency     {p50:10.1} ms p50   {p99:.1} ms p99");
    println!(
        "  full pipeline     {full_pipeline_ms_per_chip:10.3} ms/chip (classification by refit)"
    );
    println!("  batch scoring     {score_ms_per_chip:10.6} ms/chip marginal");
    println!("  amortization      {amortization:10.0}x cheaper per chip");
    println!("  artifact overhead {bytes_per_chip:10.3} bytes/chip over this stream");

    if json {
        let bench = record::object([
            ("bench", Value::from("throughput")),
            ("fit_ms", fit_ms.into()),
            ("artifact_bytes", artifact_bytes.into()),
            ("batches", batches.into()),
            ("batch_devices", batch_devices.into()),
            ("chips_scored", scored.into()),
            ("chips_per_sec", chips_per_sec.into()),
            ("p50_batch_ms", p50.into()),
            ("p99_batch_ms", p99.into()),
            (
                "full_pipeline_ms_per_chip",
                full_pipeline_ms_per_chip.into(),
            ),
            ("score_ms_per_chip", score_ms_per_chip.into()),
            ("amortization_ratio", amortization.into()),
            ("bytes_per_chip", bytes_per_chip.into()),
        ]);
        std::fs::write("BENCH_throughput.json", record::write(&bench))?;
        println!("wrote BENCH_throughput.json");
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
