//! Pipeline performance harness: times the reduced end-to-end experiment
//! at threads=1 versus the default worker pool and reports the speedup,
//! plus a per-stage wall-clock breakdown of the single-threaded run.
//!
//! Usage:
//!
//! ```text
//! perf              # print the comparison
//! perf --json       # additionally dump BENCH_pipeline.json
//! perf --trace      # additionally dump BENCH_pipeline_trace.jsonl
//! perf --score-only # only the scoring phase (one fit, no refit noise)
//! perf --scaling    # per-stage speedup curves over a worker ladder
//!                   # (writes BENCH_scaling.json)
//! ```
//!
//! On a single-core host the pooled run is the same configuration as the
//! threads=1 run, so `--json` records `"speedup": null` with an
//! explanatory `"speedup_note"` instead of publishing load noise as a
//! parallel speedup, and `--scaling`'s ladder collapses to `[1]` — which
//! still pins the guided scheduler's zero-overhead threads=1 delegation
//! (every committed speedup curve must open at exactly 1.0).
//!
//! Each timed run records into its own [`sidefp_core::RunContext`], not
//! process-global state. The per-stage breakdown is the per-stage
//! minimum across all single-threaded reps (noise is one-sided); the
//! `--trace` JSONL dump comes from the best rep's context.
//!
//! The scoring phase (`score.*` stages) always runs: it fits one
//! [`sidefp_core::FittedModel`] and times repeated batch scores against
//! it, so its per-stage minima carry no refit noise. `--score-only`
//! skips the pipeline reps entirely for fast local iteration on the
//! scoring paths (no BENCH_pipeline.json is written in that mode — the
//! committed baseline needs the full stage set).
//!
//! Build with `--release`; the debug profile distorts the hot paths.
//! Build with `--features count-alloc` to additionally report heap
//! allocation counts for the steady-state KDE/OCSVM scoring loops (the
//! counting global allocator slows the wall-clock numbers slightly, so
//! the two measurements are behind separate invocations).

use std::collections::BTreeMap;
use std::time::Instant;

use sidefp_bench::record::{self, Value};
use sidefp_core::{
    BatchScorer, ExperimentConfig, FittedModel, PaperExperiment, ParallelismConfig, RunContext,
};

#[cfg(feature = "count-alloc")]
mod alloc_count {
    //! A counting global allocator: every `alloc`/`realloc` bumps a
    //! process-wide counter, so a scope can assert how many heap blocks
    //! a steady-state loop requested.
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct CountingAllocator;

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Number of allocation requests since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns how many heap blocks it requested.
    pub fn count_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocations();
        let value = f();
        (value, allocations() - before)
    }
}

/// Steady-state allocation counts for the scoring hot loops.
struct AllocReport {
    kde_density_rows: u64,
    ocsvm_decision_rows: u64,
    score_into_rows: u64,
    packed_gemm: u64,
}

/// Measures heap blocks requested by the KDE density and OCSVM decision
/// batch-scoring loops once their workspaces are warm.
#[cfg(feature = "count-alloc")]
fn measure_steady_state_allocs() -> AllocReport {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sidefp_linalg::{Matrix, Workspace};
    use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
    use sidefp_stats::{Kernel, OneClassSvm, OneClassSvmConfig};

    let mut rng = StdRng::seed_from_u64(7);
    let data = Matrix::from_fn(200, 6, |_, _| rng.random_range(-1.0..1.0));
    let queries = Matrix::from_fn(64, 6, |_, _| rng.random_range(-1.0..1.0));

    let kde = sidefp_bench::or_die(AdaptiveKde::fit(&data, &KdeConfig::default()));
    let svm = sidefp_bench::or_die(OneClassSvm::fit(
        &data,
        &OneClassSvmConfig {
            nu: 0.1,
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        },
    ));

    let mut ws = Workspace::new();
    let mut out = vec![0.0; queries.nrows()];

    // Warm the workspace pool: the first call may allocate its scratch.
    sidefp_bench::or_die(kde.density_rows_into(&queries, &mut ws, &mut out));
    sidefp_bench::or_die(svm.decision_rows_into(&queries, &mut out));

    let (_, kde_allocs) = alloc_count::count_in(|| {
        for _ in 0..8 {
            sidefp_bench::or_die(kde.density_rows_into(&queries, &mut ws, &mut out));
        }
    });
    let (_, svm_allocs) = alloc_count::count_in(|| {
        for _ in 0..8 {
            sidefp_bench::or_die(svm.decision_rows_into(&queries, &mut out));
        }
    });

    // The artifact-driven per-device scoring loop: fit once, then count
    // heap blocks across a steady-state stretch of `score_into` calls.
    let model = FittedModel::fit(&ExperimentConfig {
        chips: 10,
        mc_samples: 40,
        kde_samples: 1200,
        ..Default::default()
    });
    let model = sidefp_bench::or_die(model);
    let mut scorer = BatchScorer::new(&model);
    let (fps, _) = model.synthesize_batch(1, 64);
    let mut decisions = vec![0.0; scorer.boundaries().len()];
    sidefp_bench::or_die(scorer.score_into(fps.row(0), &mut decisions));
    let (_, score_allocs) = alloc_count::count_in(|| {
        for i in 0..fps.nrows() {
            sidefp_bench::or_die(scorer.score_into(fps.row(i), &mut decisions));
        }
    });

    // The packed-GEMM panel buffers live in a thread-local workspace:
    // once a shape has been through it, repeated products request zero
    // heap blocks (the output matrix is caller-owned here, so the whole
    // steady-state loop must count 0).
    let ga = Matrix::from_fn(96, 80, |i, j| (i as f64 - j as f64) * 0.01);
    let gb = Matrix::from_fn(80, 72, |i, j| (i + 2 * j) as f64 * 0.005);
    let mut gout = Matrix::zeros(96, 72);
    sidefp_linalg::gemm::gemm_nn(&ga, &gb, &mut gout);
    let (_, gemm_allocs) = alloc_count::count_in(|| {
        for _ in 0..8 {
            sidefp_linalg::gemm::gemm_nn(&ga, &gb, &mut gout);
        }
    });

    AllocReport {
        kde_density_rows: kde_allocs,
        ocsvm_decision_rows: svm_allocs,
        score_into_rows: score_allocs,
        packed_gemm: gemm_allocs,
    }
}

/// Wall-clock, resolved worker count and observability context of one
/// full reduced run (the context carries the per-stage timings and the
/// trace-event ring).
fn time_run(threads: usize, seed: u64) -> (f64, usize, RunContext) {
    let experiment = sidefp_bench::or_die(PaperExperiment::new(reduced_config(seed, threads)));
    let ctx = RunContext::new();
    let start = Instant::now();
    let artifacts = sidefp_bench::or_die(experiment.run_in_context(&ctx));
    let elapsed = start.elapsed().as_secs_f64() * 1000.0;
    let result = &artifacts.result;
    if result.table1.len() != 5 {
        eprintln!(
            "error: expected 5 Table-1 rows, got {}",
            result.table1.len()
        );
        std::process::exit(1);
    }
    if !result.health.is_clean() {
        eprintln!("note: run degraded\n{}", result.health.render());
    }
    (elapsed, result.resolved_threads, ctx)
}

/// The reduced pipeline configuration every timed run uses.
fn reduced_config(seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        chips: 12,
        mc_samples: 60,
        kde_samples: 8000,
        parallelism: ParallelismConfig {
            threads,
            deterministic: true,
        },
        ..Default::default()
    }
}

/// Folds one run's stage timings into per-stage minima: load noise is
/// one-sided, so each stage's fastest rep is its stable estimate.
fn keep_minima(
    minima: &mut BTreeMap<String, f64>,
    stages: impl IntoIterator<Item = (String, f64)>,
) {
    for (name, ms) in stages {
        minima
            .entry(name)
            .and_modify(|m| *m = m.min(ms))
            .or_insert(ms);
    }
}

/// Fits one model and times `reps` batch scores against it (threads=1,
/// one warm-up batch). Returns the per-stage minima of the `score.*`
/// spans and the best whole-batch wall-clock.
type ScoringReport = (Vec<(String, f64)>, f64);

fn time_scoring(
    reps: usize,
    batch_devices: usize,
) -> Result<ScoringReport, Box<dyn std::error::Error>> {
    let model = FittedModel::fit(&reduced_config(2, 1))?;
    let mut scorer = BatchScorer::new(&model);
    let (fps, pcms) = model.synthesize_batch(99, batch_devices);
    // Warm-up batch: first call grows the workspace pool.
    scorer.score_batch(&fps, &pcms, &RunContext::new())?;
    let mut stage_min = BTreeMap::new();
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let ctx = RunContext::new();
        let start = Instant::now();
        scorer.score_batch(&fps, &pcms, &ctx)?;
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1000.0);
        keep_minima(&mut stage_min, ctx.timing_snapshot());
    }
    Ok((stage_min.into_iter().collect(), best_ms))
}

/// `--scaling`: times the reduced pipeline at a ladder of worker counts
/// and writes per-stage speedup curves (relative to threads=1) into
/// `BENCH_scaling.json`. The ladder is `[1, 2, 4, 8]` clamped to the
/// host's core count; on a single-core box it collapses to `[1]`, which
/// still pins the guided scheduler's zero-overhead sequential delegation
/// — the committed curve must open at exactly 1.0 for every stage.
fn run_scaling(cores: usize) -> Result<(), Box<dyn std::error::Error>> {
    let reps = 3usize;
    let ladder: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cores)
        .collect();

    // Warm-up run so allocator and page-cache effects don't bias the
    // threads=1 reference rung.
    let _ = time_run(1, 1);

    let mut totals: Vec<f64> = Vec::with_capacity(ladder.len());
    let mut tables: Vec<BTreeMap<String, f64>> = Vec::with_capacity(ladder.len());
    for (li, &t) in ladder.iter().enumerate() {
        println!(
            "scaling rung {}/{}: threads={t} ({reps} reps)",
            li + 1,
            ladder.len()
        );
        let mut best = f64::INFINITY;
        let mut stage_min = BTreeMap::new();
        for r in 0..reps {
            let (ms, _, ctx) = time_run(t, 2 + r as u64);
            best = best.min(ms);
            keep_minima(&mut stage_min, ctx.timing_snapshot());
        }
        totals.push(best);
        tables.push(stage_min);
    }

    // Only stages timed at every rung get a curve — the stage set is
    // thread-count-independent in practice, so a divergence would mean
    // the instrumentation itself changed mid-sweep.
    let stage_names: Vec<String> = tables[0]
        .keys()
        .filter(|name| tables.iter().all(|tbl| tbl.contains_key(*name)))
        .cloned()
        .collect();

    let fmt = |v: &[f64]| -> String {
        let parts: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        format!("[{}]", parts.join(", "))
    };
    let total_speedup: Vec<f64> = totals.iter().map(|ms| totals[0] / ms).collect();

    println!("scaling (chips 12, mc 60, kde 8000; per-rung min over {reps} reps):");
    println!("  threads      {ladder:?}");
    println!("  total ms     {}", fmt(&totals));
    println!("  total x      {}", fmt(&total_speedup));
    let mut stages_ms = Vec::with_capacity(stage_names.len());
    let mut stages_speedup = Vec::with_capacity(stage_names.len());
    for name in &stage_names {
        let ms: Vec<f64> = tables.iter().map(|tbl| tbl[name]).collect();
        let speedup: Vec<f64> = ms.iter().map(|v| ms[0] / v).collect();
        println!("  {name:<16} {}  {}", fmt(&ms), fmt(&speedup));
        stages_ms.push((name.as_str(), Value::from(ms)));
        stages_speedup.push((name.as_str(), Value::from(speedup)));
    }

    let bench = record::object([
        ("bench", Value::from("scaling")),
        ("cores", cores.into()),
        ("reps", reps.into()),
        ("thread_counts", ladder.into()),
        ("total_ms", totals.into()),
        ("total_speedup", total_speedup.into()),
        ("stages_ms", record::object(stages_ms)),
        ("stages_speedup", record::object(stages_speedup)),
    ]);
    std::fs::write("BENCH_scaling.json", record::write(&bench))?;
    println!("wrote BENCH_scaling.json");
    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let json = std::env::args().any(|a| a == "--json");
    let trace = std::env::args().any(|a| a == "--trace");
    let score_only = std::env::args().any(|a| a == "--score-only");
    let scaling = std::env::args().any(|a| a == "--scaling");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if scaling {
        return run_scaling(cores);
    }

    // The scoring phase reuses ONE fitted model across all reps: the
    // score.* stage minima measure pure scoring, never refit noise.
    let score_batch_devices = 20_000;
    let (score_stages, score_batch_ms) = time_scoring(5, score_batch_devices)?;

    if score_only {
        println!("scoring (batch of {score_batch_devices} devices, best of 5):");
        println!("  batch           {score_batch_ms:8.1} ms");
        for (name, ms) in &score_stages {
            println!("  {name:<16} {ms:8.2} ms");
        }
        if json {
            println!("note: --score-only writes no BENCH_pipeline.json (needs the full stage set)");
        }
        #[cfg(feature = "count-alloc")]
        {
            let report = measure_steady_state_allocs();
            println!("steady-state allocations:");
            println!("  score_into          {:6}", report.score_into_rows);
        }
        return Ok(());
    }

    // Warm-up run so allocator and page-cache effects don't bias the
    // single-threaded baseline.
    let _ = time_run(1, 1);

    // Wall-clock on a shared box is one-sided noise: load only ever slows
    // a rep down, so the minimum over several reps is the stable estimate.
    let reps = 5;
    let single_runs: Vec<(f64, usize, RunContext)> =
        (0..reps).map(|r| time_run(1, 2 + r)).collect();
    let (single_ms, _, single_ctx) = single_runs
        .iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(ms, threads, ctx)| (*ms, *threads, ctx))
        .ok_or("at least one rep")?;
    let (pooled_ms, resolved_threads, _) = (0..reps)
        .map(|r| time_run(0, 2 + r))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .ok_or("at least one rep")?;
    let speedup = single_ms / pooled_ms;
    // Per-stage minimum across ALL single-threaded reps, not the stages
    // of the best-total rep: a rep that wins on total wall-clock can
    // still have been preempted inside one stage, and that one noisy
    // entry is exactly what trips a share-based regression gate.
    let mut stage_min = BTreeMap::new();
    for (_, _, ctx) in &single_runs {
        keep_minima(&mut stage_min, ctx.timing_snapshot());
    }
    // Merge the scoring-phase stages into the table: the committed
    // baseline's stage set must match what a fresh default run produces,
    // so the score.* entries are always present, not opt-in.
    keep_minima(&mut stage_min, score_stages);
    let stages: Vec<(String, f64)> = stage_min.into_iter().collect();

    println!("pipeline (chips 12, mc 60, kde 8000), best of {reps}:");
    println!("  threads=1       {single_ms:8.1} ms");
    println!("  threads=auto({cores}) {pooled_ms:8.1} ms  ({resolved_threads} worker(s))");
    if cores == 1 {
        println!("  speedup         n/a (single-core host)");
    } else {
        println!("  speedup         {speedup:8.2}x");
    }
    println!("scoring (batch of {score_batch_devices} devices, best of 5): {score_batch_ms:.1} ms");
    println!("stages (threads=1, per-stage min over {reps} reps; score.* from the scoring phase):");
    // The untimed remainder is a pipeline-run number: score.* stages are
    // measured against the reused fitted model, outside `single_ms`.
    let accounted: f64 = stages
        .iter()
        .filter(|(name, _)| !name.starts_with("score."))
        .map(|(_, ms)| ms)
        .sum();
    for (name, ms) in &stages {
        println!("  {name:<16} {ms:8.2} ms");
    }
    println!("  {:<16} {:8.2} ms", "(untimed)", single_ms - accounted);

    #[cfg(feature = "count-alloc")]
    let allocs = Some(measure_steady_state_allocs());
    #[cfg(not(feature = "count-alloc"))]
    let allocs: Option<AllocReport> = None;
    if let Some(report) = &allocs {
        println!("steady-state allocations (8 batch-scoring calls each):");
        println!("  kde.density_rows    {:6}", report.kde_density_rows);
        println!("  ocsvm.decision_rows {:6}", report.ocsvm_decision_rows);
        println!("  score_into          {:6}", report.score_into_rows);
        println!("  packed_gemm         {:6}", report.packed_gemm);
        if report.packed_gemm != 0 {
            return Err(format!(
                "steady-state packed GEMM requested {} heap blocks (expected 0)",
                report.packed_gemm
            )
            .into());
        }
    }

    if json {
        let mut fields = vec![
            ("bench", Value::from("pipeline")),
            ("cores", cores.into()),
            ("resolved_threads", resolved_threads.into()),
            ("threads1_ms", single_ms.into()),
            ("default_ms", pooled_ms.into()),
        ];
        // On a single-core host the pooled run is the same configuration
        // as the threads=1 run; publishing their ratio would record load
        // noise as a parallel speedup, so the field is null with a note.
        if cores == 1 {
            fields.push(("speedup", Value::Null));
            fields.push((
                "speedup_note",
                "single-core host: pooled run equals threads=1, no parallel speedup is measurable"
                    .into(),
            ));
        } else {
            fields.push(("speedup", speedup.into()));
        }
        let stages_ms = stages
            .iter()
            .map(|(name, ms)| (name.as_str(), Value::from(*ms)));
        fields.push(("stages_ms", record::object(stages_ms)));
        if let Some(report) = &allocs {
            let counts = record::object([
                ("kde_density_rows", Value::from(report.kde_density_rows)),
                ("ocsvm_decision_rows", report.ocsvm_decision_rows.into()),
                ("score_into_rows", report.score_into_rows.into()),
                ("packed_gemm", report.packed_gemm.into()),
            ]);
            fields.push(("steady_state_allocs", counts));
        }
        std::fs::write(
            "BENCH_pipeline.json",
            record::write(&record::object(fields)),
        )?;
        println!("wrote BENCH_pipeline.json");
    }

    if trace {
        std::fs::write("BENCH_pipeline_trace.jsonl", single_ctx.trace_jsonl())?;
        println!(
            "wrote BENCH_pipeline_trace.jsonl ({} events, {} dropped)",
            single_ctx.trace_len(),
            single_ctx.trace_dropped()
        );
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
