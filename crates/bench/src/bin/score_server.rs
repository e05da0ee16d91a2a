//! Long-lived fingerprint-scoring service: load the artifact once, score
//! every batch that arrives.
//!
//! Usage:
//!
//! ```text
//! score-server [--artifact PATH] [--batches N] [--batch-size N]
//!              [--threads N] [--seed S]
//! ```
//!
//! The production half of the fit/score split as a process: if the
//! artifact file exists it is loaded (version-checked, checksummed) and
//! *no fit stage ever runs*; otherwise the model is fitted once at the
//! paper's default scale and saved, so the next start is load-only. The
//! server then simulates a tester feeding it `--batches` wafer-lot
//! batches, fanned out over the worker pool: each batch gets its own
//! [`BatchScorer`] (cloned boundaries + private workspace) and its own
//! [`RunContext`], so per-batch RunHealth accounting and trace events
//! never interleave across workers.
//!
//! Determinism: batch contents are a pure function of `--seed` and the
//! batch index, and scoring itself is RNG-free, so the printed verdict
//! digest is bit-identical for any `--threads` value — the digest line
//! is the proof the fan-out does not perturb a single verdict.

use std::path::Path;
use std::time::Instant;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_core::{BatchScorer, ExperimentConfig, FittedModel, RunContext, TraceEvent};
use sidefp_parallel::{fork_seed, map_indexed, with_threads};

/// FNV-1a 64 over a byte stream; the verdict digest accumulator.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct BatchReport {
    devices: usize,
    kept: usize,
    flagged: usize,
    quarantined: usize,
    ms: f64,
    /// Per-batch digest over (kept row index, verdict, decision bits).
    digest: u64,
}

fn main() {
    let args = Args::from_env(&Spec {
        usage:
            "score-server [--artifact PATH] [--batches N] [--batch-size N] [--threads N] [--seed S]",
        switches: &[],
        options: &[
            ("--artifact", Kind::Text),
            ("--batches", Kind::Number),
            ("--batch-size", Kind::Number),
            ("--threads", Kind::Number),
            ("--seed", Kind::Number),
        ],
        positional: (0, Kind::Text),
    });
    let artifact = args.text("--artifact").unwrap_or("fitted_model.sfpa");
    let count = |name, default| args.number(name).map_or(default, |n| n as usize);
    let batches = count("--batches", 6);
    let batch_size = count("--batch-size", 5_000);
    let threads = count("--threads", 1);
    let seed = args.number("--seed").unwrap_or(7);

    let model = if Path::new(artifact).exists() {
        let start = Instant::now();
        let model = match FittedModel::load(artifact) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("score-server: cannot load {artifact}: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "loaded {artifact} in {:.1} ms (seed {}, {} boundaries, dim {})",
            start.elapsed().as_secs_f64() * 1000.0,
            model.seed(),
            model.boundaries().len(),
            model.fingerprint_dim()
        );
        model
    } else {
        println!("no artifact at {artifact}; fitting once at paper scale ...");
        let start = Instant::now();
        let model = sidefp_bench::or_die(FittedModel::fit(&ExperimentConfig::default()));
        println!("fitted in {:.1} ms", start.elapsed().as_secs_f64() * 1000.0);
        sidefp_bench::or_die(model.save(artifact));
        println!(
            "saved {artifact} ({} bytes); restarts are now load-only",
            model.to_bytes().len()
        );
        model
    };

    println!("serving {batches} batches of {batch_size} devices on {threads} thread(s)");
    let serve_start = Instant::now();
    let reports: Vec<BatchReport> = with_threads(threads, || {
        map_indexed(batches, |b| {
            let mut scorer = BatchScorer::new(&model);
            let ctx = RunContext::new();
            let (fps, pcms) = model.synthesize_batch(fork_seed(seed, b as u64), batch_size);
            let start = Instant::now();
            let scored = sidefp_bench::or_die(scorer.score_batch(&fps, &pcms, &ctx));
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            let quarantined = ctx
                .trace_events()
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::Quarantine { .. }))
                .count();
            let digest = fnv1a64(scored.kept.iter().enumerate().flat_map(|(i, &raw)| {
                let verdict = scored.verdicts[i] as u8;
                let decision = scored.decisions[(i, scored.decisions.ncols() - 1)];
                (raw as u64)
                    .to_le_bytes()
                    .into_iter()
                    .chain([verdict])
                    .chain(decision.to_bits().to_le_bytes())
            }));
            BatchReport {
                devices: batch_size,
                kept: scored.kept.len(),
                flagged: scored.flagged(),
                quarantined,
                ms,
                digest,
            }
        })
    });
    let serve_ms = serve_start.elapsed().as_secs_f64() * 1000.0;

    let mut total_kept = 0usize;
    let mut total_flagged = 0usize;
    for (b, r) in reports.iter().enumerate() {
        println!(
            "  batch {b:3}  {:6} in  {:6} kept  {:4} flagged  {:3} quarantined  {:8.1} ms",
            r.devices, r.kept, r.flagged, r.quarantined, r.ms
        );
        total_kept += r.kept;
        total_flagged += r.flagged;
    }

    // Digest of digests, in batch order: stable across thread counts
    // because map_indexed returns results in index order regardless of
    // which worker ran which batch.
    let digest = fnv1a64(reports.iter().flat_map(|r| r.digest.to_le_bytes()));
    println!(
        "served {total_kept} chips in {serve_ms:.1} ms ({:.0} chips/sec), {total_flagged} flagged",
        total_kept as f64 / (serve_ms / 1000.0)
    );
    println!("verdict digest {digest:016x} (thread-count invariant)");
}
