//! The golden chip-free detector's benchmark: four workloads, end-to-end
//! metrics from an untraced pass and per-layer metrics from a traced pass.
//!
//! Every workload is a closed loop with one client: the next operation
//! starts when the previous one returns. Inputs are generated from the
//! run's seed through [`sidefp_parallel::fork_seed`]; the program sees
//! only the generated configurations and batches. The benchmark times
//! calls into each layer's public functions and reads sub-stage times
//! from the `RunContext` timing table the program already keeps.

use std::time::{Duration, Instant};

use sidefp_core::RunContext;

pub mod catalog;
mod drift;
mod fit;
pub mod heap;
pub mod host;
pub mod json;
mod probes;
pub mod procfs;
mod scoring;
pub mod stats;
pub mod trace;

use catalog::END_TO_END;
use stats::{beyond, median, quantile, TAIL_MIN_BEYOND};
use trace::{Mark, Series, Tracer};

/// Worker threads the fit workloads run with (clamped to the machine).
pub const WORKERS: usize = 2;

/// Quantile reported as `latency_p75_ms`. Higher percentiles are well
/// sampled too, but on a shared host they mostly measure other tenants'
/// load: over ten runs the p90 of `lot-scoring` spread 22% against 5% for
/// p75.
const TAIL_QUANTILE: f64 = 0.75;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Calibrate a detector on one lot at the paper's defaults and produce
    /// Table 1: the paper's own job.
    PaperFit,
    /// The same fit at a wide fingerprint (four side channels, three
    /// PCMs).
    WideFingerprint,
    /// Production scoring of synthesized device batches through a fitted,
    /// round-tripped model, with fault-injected batches.
    LotScoring,
    /// Drifting wafer-lot streams with tiered recalibration.
    DriftStream,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFit,
        Workload::WideFingerprint,
        Workload::LotScoring,
        Workload::DriftStream,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFit => "paper-fit",
            Workload::WideFingerprint => "wide-fingerprint",
            Workload::LotScoring => "lot-scoring",
            Workload::DriftStream => "drift-stream",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt that keeps the workloads' forked seeds apart.
    fn salt(self) -> u64 {
        match self {
            Workload::PaperFit => 1,
            Workload::WideFingerprint => 2,
            Workload::LotScoring => 3,
            Workload::DriftStream => 4,
        }
    }

    /// Worker threads the workload's operations run with.
    fn op_workers(self) -> usize {
        match self {
            Workload::LotScoring => 1,
            _ => workers(),
        }
    }
}

/// [`WORKERS`] clamped to the machine's available parallelism.
pub fn workers() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    WORKERS.min(hw)
}

/// Problem sizes. [`Scale::paper`] is what the benchmark measures;
/// [`Scale::tiny`] keeps the test suite fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Chips per lot (three devices each).
    pub chips: usize,
    /// Monte Carlo samples.
    pub mc_samples: usize,
    /// KDE samples (S2, S5).
    pub kde_samples: usize,
    /// Devices per scoring batch.
    pub batch_devices: usize,
    /// Batches per scoring session.
    pub batches_per_session: usize,
    /// Lots per drifting stream.
    pub lots_per_stream: usize,
    /// Warm-up fits timed as set-up by the fit workloads.
    pub setup_fits: usize,
}

impl Scale {
    /// The paper's sizes: 40 chips × 3 versions, 100 Monte Carlo samples,
    /// 10⁵ KDE samples; 25,000-device batches, 40 per session; 12 lots
    /// per stream. Fit workloads time 7 set-up fits: the median of 3 fresh
    /// fits spread 34% over ten runs.
    pub fn paper() -> Scale {
        Scale {
            chips: 40,
            mc_samples: 100,
            kde_samples: 100_000,
            batch_devices: 25_000,
            batches_per_session: 40,
            lots_per_stream: 12,
            setup_fits: 7,
        }
    }

    /// Minimal sizes for tests.
    pub fn tiny() -> Scale {
        Scale {
            chips: 10,
            mc_samples: 40,
            kde_samples: 1200,
            batch_devices: 600,
            batches_per_session: 2,
            lots_per_stream: 2,
            setup_fits: 1,
        }
    }
}

/// How long a run measures: until `seconds` have passed or `max_ops`
/// operations were attempted, whichever comes first (at least one).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Operation cap.
    pub max_ops: usize,
}

/// Closed-loop bookkeeping shared by the workloads.
pub(crate) struct Run {
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    window: Duration,
    deadline: Instant,
    max_ops: usize,
    /// Operation latencies rescaled to the nominal host speed.
    latency_ms: Vec<f64>,
    /// The same latencies as measured.
    wall_ms: Vec<f64>,
    /// Sum of `latency_ms`.
    busy_ms: f64,
    /// Reference-loop times measured next to every sample and set-up.
    reference_ms: Vec<f64>,
    chips: usize,
    setup_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    tracer: Tracer,
    series: Series,
    /// Fingerprint width and B5 support vectors of the last traced fit,
    /// sizing the kernel probes.
    probe_shape: Option<(usize, usize)>,
}

impl Run {
    fn new(workload: Workload, seed: u64, budget: Budget, scale: Scale, traced: bool) -> Run {
        let window = Duration::from_secs_f64(budget.seconds.max(0.0));
        Run {
            workload,
            seed,
            scale,
            traced,
            window,
            deadline: Instant::now() + window,
            max_ops: budget.max_ops.max(1),
            latency_ms: Vec::new(),
            wall_ms: Vec::new(),
            busy_ms: 0.0,
            reference_ms: Vec::new(),
            chips: 0,
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            tracer: Tracer::new(workload.name()),
            series: Series::default(),
            probe_shape: None,
        }
    }

    /// The seed of item `k` of this workload.
    fn item_seed(&self, k: u64) -> u64 {
        sidefp_parallel::fork_seed(
            sidefp_parallel::fork_seed(self.seed, self.workload.salt()),
            k,
        )
    }

    /// Starts the measurement window.
    fn start_clock(&mut self) {
        self.deadline = Instant::now() + self.window;
    }

    /// `true` while the window is open and the operation cap not reached.
    fn more(&self) -> bool {
        self.attempted < self.max_ops && (self.attempted == 0 || Instant::now() < self.deadline)
    }

    /// Records one attempted operation and whether it and its output
    /// checks succeeded. A set-up or end-of-stream check that fails is
    /// recorded as one failed attempt.
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(why);
            }
        }
    }

    /// Times the host reference loop and rescales `wall` by it.
    fn rescaled(&mut self, wall: f64) -> f64 {
        let reference = host::reference_ms();
        self.reference_ms.push(reference);
        host::rescale(wall, reference)
    }

    /// Records the wall latency of a completed operation and the devices
    /// it judged.
    fn sample(&mut self, ms: f64, chips: usize) {
        let scaled = self.rescaled(ms);
        self.latency_ms.push(scaled);
        self.wall_ms.push(ms);
        self.busy_ms += scaled;
        self.chips += chips;
    }

    /// Records one set-up that took `seconds` of wall time.
    fn setup_done(&mut self, seconds: f64) {
        let scaled = self.rescaled(seconds);
        self.setup_s.push(scaled);
    }

    /// Runs operation number `op`, which records into `ctx`. In the traced
    /// pass, operations the caller marks `traced` run inside an `op` span
    /// whose children are the stages `ctx` recorded meanwhile; the others
    /// run untraced, and the two medians give the tracing overhead. Callers
    /// mark half their operations, alternating over comparable inputs.
    /// Returns the value and the latency in ms.
    fn op<T>(
        &mut self,
        op: usize,
        traced: bool,
        ctx: &RunContext,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        if !self.traced {
            let start = Instant::now();
            let value = f();
            return (value, start.elapsed().as_secs_f64() * 1e3);
        }
        let faults = procfs::minor_faults();
        let (value, ms) = if traced {
            let mark = Mark::of(ctx);
            let (value, ms) = self.tracer.span("op", op, None, |t, id| {
                let value = f();
                t.stages(id, op, ctx, &mark);
                value
            });
            self.series.push("op.traced_ms", ms);
            (value, ms)
        } else {
            let start = Instant::now();
            let value = f();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            self.series.push("op.untraced_ms", ms);
            (value, ms)
        };
        if let (Some(before), Some(after)) = (faults, procfs::minor_faults()) {
            self.series.push(
                "mem.minor_faults_per_op",
                after.saturating_sub(before) as f64,
            );
        }
        (value, ms)
    }
}

/// Accumulated milliseconds under one timing key (0 if never recorded).
fn timing_ms(ctx: &RunContext, key: &str) -> f64 {
    ctx.timing_snapshot()
        .iter()
        .find(|(name, _)| name == key)
        .map_or(0.0, |(_, ms)| *ms)
}

/// Fails with `what` unless `cond` holds.
fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Report {
    /// `true` when every attempted operation passed its output checks.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations (or set-ups) that errored or failed a check.
    pub failed: usize,
    /// `(name, value, unit)` for every end-to-end metric (untraced pass)
    /// or every per-layer metric (traced pass), in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// The traced pass's spans as JSONL.
    pub trace_jsonl: Option<String>,
}

impl Report {
    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value": …, "unit": …}`).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

impl Report {
    /// Completes an untraced report with the peak heap that
    /// [`peak_heap_mib`] measured, or records its failure as one failed
    /// operation.
    pub fn with_peak_heap(mut self, peak: Result<f64, String>) -> Report {
        let mib = peak.unwrap_or_else(|why| {
            self.attempted += 1;
            self.failed += 1;
            self.correct = false;
            self.notes.push(format!("  failure: heap run: {why}"));
            0.0
        });
        self.metrics.push(("peak_heap_mib", mib, "MiB"));
        self
    }
}

/// Peak live heap, in MiB, of a fixed slice of `workload`: one seed fitted
/// twice (fit workloads), one session's set-up and four batches
/// (`lot-scoring`) or one whole stream (`drift-stream`). Switches heap
/// counting on for the rest of the process, so the timed passes run in
/// other processes.
///
/// # Errors
///
/// The run's failures, when an operation errors or fails its checks.
pub fn peak_heap_mib(workload: Workload, seed: u64, scale: Scale) -> Result<f64, String> {
    heap::start_counting();
    let max_ops = match workload {
        Workload::PaperFit | Workload::WideFingerprint => 2,
        Workload::LotScoring => 4,
        Workload::DriftStream => scale.lots_per_stream,
    };
    let budget = Budget {
        seconds: HEAP_RUN_LIMIT_S,
        max_ops,
    };
    let scale = Scale {
        setup_fits: 1,
        ..scale
    };
    let report = run_workload(workload, seed, budget, scale, false);
    if report.correct {
        Ok(heap::peak_mib())
    } else {
        Err(report.notes.join("\n"))
    }
}

/// Time limit of the heap run, far above what its fixed slice takes.
const HEAP_RUN_LIMIT_S: f64 = 600.0;

/// Runs one workload: the untraced end-to-end pass, or with `traced` the
/// per-layer pass. The untraced report lacks `peak_heap_mib` until
/// [`Report::with_peak_heap`] adds it.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    budget: Budget,
    scale: Scale,
    traced: bool,
) -> Report {
    let mut run = Run::new(workload, seed, budget, scale, traced);
    match workload {
        Workload::PaperFit | Workload::WideFingerprint => fit::run(&mut run),
        Workload::LotScoring => scoring::run(&mut run),
        Workload::DriftStream => drift::run(&mut run),
    }
    if traced {
        if let Some((width, support_vectors)) = run.probe_shape {
            let seed = run.item_seed(u64::MAX);
            probes::run(
                &mut run.series,
                width,
                support_vectors,
                seed,
                workload.op_workers(),
            );
        }
    }
    finish(run)
}

fn finish(mut run: Run) -> Report {
    let mut notes = vec![format!(
        "{}: {} ops attempted, {} failed, {} set-ups, {} worker(s)",
        run.workload.name(),
        run.attempted,
        run.failed,
        run.setup_s.len(),
        run.workload.op_workers(),
    )];
    notes.extend(run.errors.iter().map(|e| format!("  failure: {e}")));
    let metrics = if run.traced {
        run.series
            .push("mem.peak_rss_mib", procfs::peak_rss_mib().unwrap_or(0.0));
        run.series
            .push("host.reference_ms", median(&run.reference_ms));
        for (name, count, dur, own) in run.tracer.self_times() {
            notes.push(format!(
                "  span {name:<28} n={count:<5} median {dur:10.3} ms  self {own:10.3} ms"
            ));
        }
        run.series
            .layer_metrics()
            .into_iter()
            .zip(catalog::PER_LAYER)
            .map(|((name, value), def)| (name, value, def.unit))
            .collect()
    } else {
        let n_beyond = beyond(&run.latency_ms, TAIL_QUANTILE);
        notes.push(format!(
            "  latency over {} ops, {} beyond p75{}",
            run.latency_ms.len(),
            n_beyond,
            if n_beyond < TAIL_MIN_BEYOND {
                " (fewer than ten: run longer for a trustworthy p75)"
            } else {
                ""
            }
        ));
        for (label, values) in [("rescaled", &run.latency_ms), ("wall", &run.wall_ms)] {
            notes.push(format!(
                "  {label} latency ms: p10 {:.3}  p25 {:.3}  p50 {:.3}  p75 {:.3}  p90 {:.3}",
                quantile(values, 0.10),
                quantile(values, 0.25),
                quantile(values, 0.50),
                quantile(values, 0.75),
                quantile(values, 0.90),
            ));
        }
        notes.push(format!(
            "  host reference loop: median {:.4} ms, nominal {} ms",
            median(&run.reference_ms),
            host::NOMINAL_MS
        ));
        let busy_s = run.busy_ms / 1e3;
        // `peak_heap_mib`, last in the catalog, comes from its own counting
        // run: see `Report::with_peak_heap`.
        let values = [
            median(&run.latency_ms),
            quantile(&run.latency_ms, TAIL_QUANTILE),
            if busy_s > 0.0 {
                run.chips as f64 / busy_s
            } else {
                0.0
            },
            median(&run.setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, v)| (def.name, v, def.unit))
            .collect()
    };
    Report {
        correct: run.failed == 0 && run.attempted > 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        notes,
        trace_jsonl: run.traced.then(|| run.tracer.jsonl()),
    }
}
