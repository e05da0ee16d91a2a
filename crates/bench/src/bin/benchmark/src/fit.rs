//! The fit workloads (`paper-fit`, `wide-fingerprint`) and the traced
//! decomposition of one fit into the pipeline's public stage calls, which
//! every workload's traced pass uses to attribute time to layers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_chip::trojan::TrojanSuite;
use sidefp_core::config::RegressionSpace;
use sidefp_core::experiment::RunArtifacts;
use sidefp_core::health::RunHealth;
use sidefp_core::scenario::{channel_sets, Scenario};
use sidefp_core::stages::{trojan_test, PremanufacturingStage, SiliconStage, Testbench};
use sidefp_core::{
    golden_baseline, CoreError, ExperimentConfig, PaperExperiment, RunContext, Table1Row,
    TrustedBoundary,
};
use sidefp_linalg::Matrix;
use sidefp_silicon::corner::TechnologyPreset;
use sidefp_silicon::ProcessCorner;
use sidefp_stats::KernelMeanMatching;

use crate::trace::{Mark, Series, Tracer};
use crate::{ensure, timing_ms, Run, Scale, Workload, WORKERS};

/// The paper-default experiment at `scale`, seeded `seed`, on
/// [`WORKERS`] workers.
pub(crate) fn paper_config(scale: &Scale, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        seed,
        chips: scale.chips,
        mc_samples: scale.mc_samples,
        kde_samples: scale.kde_samples,
        ..Default::default()
    };
    cfg.parallelism.threads = WORKERS;
    cfg
}

/// The `power+iddt+delay+spectral/always-on/tt/paper` scenario cell:
/// eleven fingerprint columns, three PCMs.
fn wide_config(scale: &Scale, seed: u64) -> Result<ExperimentConfig, String> {
    let base = paper_config(scale, seed);
    let widest = channel_sets(&base.meter)
        .pop()
        .ok_or("the scenario grid has no channel stacks")?;
    let cell = Scenario::new(
        widest,
        TrojanSuite::rf_leaks(base.amplitude_delta, base.frequency_delta),
        ProcessCorner::Typical,
        TechnologyPreset::paper(),
    );
    Ok(cell.config(&base, seed))
}

/// What a fit must reproduce bit for bit when its seed is repeated.
#[derive(Debug, Clone, PartialEq)]
struct FitOutput {
    table1: Vec<Table1Row>,
    golden: Table1Row,
    health: RunHealth,
}

pub(crate) fn check_table1(table1: &[Table1Row], devices: usize) -> Result<(), String> {
    let names: Vec<&str> = table1.iter().map(|r| r.dataset).collect();
    ensure(names == ["B1", "B2", "B3", "B4", "B5"], || {
        format!("Table 1 rows {names:?}, expected B1-B5")
    })?;
    for row in table1 {
        let total = row.counts.infested_total() + row.counts.free_total();
        ensure(total == devices, || {
            format!("{} judged {total} devices of {devices}", row.dataset)
        })?;
    }
    Ok(())
}

pub(crate) fn push_b5(series: &mut Series, table1: &[Table1Row]) {
    if let Some(b5) = table1.iter().find(|r| r.dataset == "B5") {
        series.push("b5.missed", b5.counts.false_positives() as f64);
        series.push("b5.infested", b5.counts.infested_total() as f64);
        series.push("b5.false_alarms", b5.counts.false_negatives() as f64);
        series.push("b5.free", b5.counts.free_total() as f64);
    }
}

/// Checks one fit's output: Table 1 judges every device and the
/// fingerprint has the workload's width.
fn check_fit(arts: &RunArtifacts, width: usize) -> Result<FitOutput, String> {
    check_table1(&arts.result.table1, arts.silicon.dutts.len())?;
    let got = arts.silicon.dutts.fingerprints().ncols();
    ensure(got == width, || {
        format!("fingerprint width {got}, expected {width}")
    })?;
    Ok(FitOutput {
        table1: arts.result.table1.clone(),
        golden: arts.result.golden_baseline,
        health: arts.result.health.clone(),
    })
}

/// `paper-fit` and `wide-fingerprint`: each operation is one
/// `PaperExperiment::run_in_context`. Operations `2k` and `2k + 1` fit
/// forked seed `k`, and the second must reproduce the first bit for bit.
/// In the traced pass one fit of each pair runs traced and is then
/// attributed: the second for even `k`, the first for odd `k`, so traced
/// and untraced fits are equally often the first of their seed. Set-up is
/// the first few fits of a fresh process, on seeds of their own.
pub(crate) fn run(run: &mut Run) {
    let wide = run.workload == Workload::WideFingerprint;
    let width = if wide { 11 } else { 6 };
    let config = |run: &Run, item: u64| {
        let seed = run.item_seed(item);
        if wide {
            wide_config(&run.scale, seed)
        } else {
            Ok(paper_config(&run.scale, seed))
        }
    };

    for k in 0..run.scale.setup_fits {
        let outcome = config(run, u64::MAX - k as u64).and_then(|cfg| {
            let start = Instant::now();
            let arts = PaperExperiment::new(cfg).and_then(|e| e.run_with_artifacts());
            run.setup_done(start.elapsed().as_secs_f64());
            check_fit(&arts.map_err(|e| format!("set-up fit: {e}"))?, width).map(drop)
        });
        if let Err(why) = outcome {
            run.record(Err(why));
        }
    }

    run.start_clock();
    let mut first: Option<FitOutput> = None;
    let mut op = 0;
    while run.more() {
        if op % 2 == 0 {
            first = None;
        }
        let traced = (op % 2 == 1) != ((op / 2) % 2 == 1);
        let outcome = config(run, (op / 2) as u64).and_then(|cfg| {
            let ctx = RunContext::new();
            let (arts, ms) = run.op(op, traced, &ctx, || {
                PaperExperiment::new(cfg.clone()).and_then(|e| e.run_in_context(&ctx))
            });
            let arts = arts.map_err(|e| format!("fit: {e}"))?;
            run.sample(ms, arts.silicon.dutts.len());
            let out = check_fit(&arts, width)?;
            if run.traced && traced {
                attribute(run, &cfg, op, Some(&out.table1))?;
            }
            if op % 2 == 0 {
                first = Some(out);
            } else if let Some(first) = first.take() {
                // After a failed first fit there is nothing to compare
                // with; that failure is already counted.
                ensure(first == out, || {
                    format!(
                        "repeating a seed changed Table 1 or run health: {:?}",
                        out.table1
                    )
                })?;
            }
            Ok(())
        });
        run.record(outcome);
        op += 1;
    }
}

/// One fit decomposed into the pipeline's public calls, each in its own
/// `RunContext` so solver health is attributed per stage.
pub(crate) struct Decomposed {
    pub pre: PremanufacturingStage,
    pub si: SiliconStage,
    pub table1: Vec<Table1Row>,
    pub golden: Table1Row,
    pre_ctx: RunContext,
    si_ctx: RunContext,
    pre_ms: f64,
    si_ms: f64,
    eval_ms: f64,
    total_ms: f64,
}

impl Decomposed {
    /// Hands the stages back in the shape `PaperExperiment` returns, for
    /// `FittedModel::from_artifacts`, which reads only the stages: the
    /// summary carries Table 1 but no Figure-4 panels or health counters.
    pub fn into_artifacts(self) -> RunArtifacts {
        RunArtifacts {
            result: sidefp_core::ExperimentResult {
                table1: self.table1,
                golden_baseline: self.golden,
                fig4: Vec::new(),
                health: RunHealth::default(),
                resolved_threads: 0,
            },
            premanufacturing: self.pre,
            silicon: self.si,
        }
    }
}

/// `Testbench::random` → `PremanufacturingStage::run_observed` →
/// `SiliconStage::run_observed` → `trojan_test::evaluate_boundaries` +
/// `golden_baseline::run_observed`, at `threads` workers, each call in a
/// span under `parent`.
fn decompose(
    cfg: &ExperimentConfig,
    threads: usize,
    tracer: &mut Tracer,
    op: usize,
    parent: usize,
    label: &str,
) -> Result<Decomposed, CoreError> {
    sidefp_parallel::with_threads(threads, || {
        sidefp_parallel::with_determinism(cfg.parallelism.deterministic, || {
            let (result, total_ms) = tracer.span(label, op, Some(parent), |t, id| {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let (bench, _) = t.span("testbench", op, Some(id), |_, _| {
                    let bench =
                        Testbench::random(&mut rng, cfg.fingerprint_blocks, cfg.pcm_suite.clone())?
                            .with_meter(cfg.meter.clone());
                    Ok::<_, CoreError>(match &cfg.channels {
                        Some(channels) => bench.with_channels(channels.clone()),
                        None => bench,
                    })
                });
                let bench = bench?;
                let pre_ctx = RunContext::new();
                let (pre, pre_ms) = t.span("premanufacturing", op, Some(id), |t, sid| {
                    let pre = PremanufacturingStage::run_observed(cfg, &bench, &mut rng, &pre_ctx);
                    t.stages(sid, op, &pre_ctx, &Mark::default());
                    pre
                });
                let pre = pre?;
                let si_ctx = RunContext::new();
                let (si, si_ms) = t.span("silicon_stage", op, Some(id), |t, sid| {
                    let si = SiliconStage::run_observed(cfg, &bench, &pre, &mut rng, &si_ctx);
                    t.stages(sid, op, &si_ctx, &Mark::default());
                    si
                });
                let si = si?;
                let eval_ctx = RunContext::new();
                let (eval, eval_ms) = t.span("trojan_test", op, Some(id), |t, sid| {
                    let table1 = trojan_test::evaluate_boundaries(
                        &[&pre.b1, &pre.b2, &si.b3, &si.b4, &si.b5],
                        &si.dutts,
                    );
                    let golden = golden_baseline::run_observed(
                        &si.dutts,
                        &cfg.boundary,
                        cfg.seed,
                        &eval_ctx,
                    );
                    t.stages(sid, op, &eval_ctx, &Mark::default());
                    table1.and_then(|rows| golden.map(|(_, row)| (rows, row)))
                });
                let (table1, golden) = eval?;
                Ok(Decomposed {
                    pre,
                    si,
                    table1,
                    golden,
                    pre_ctx,
                    si_ctx,
                    pre_ms,
                    si_ms,
                    eval_ms,
                    total_ms: 0.0,
                })
            });
            result.map(|d| Decomposed { total_ms, ..d })
        })
    })
}

/// Records the stage times of one decomposed fit under `prefix`
/// (`w1.`/`w2.`) for the parallel speedups.
fn push_stage_times(series: &mut Series, prefix: &str, d: &Decomposed) {
    let pre = |key| timing_ms(&d.pre_ctx, key);
    let si = |key| timing_ms(&d.si_ctx, key);
    for (stage, ms) in [
        ("total", d.total_ms),
        ("mc", pre("mc")),
        ("measure", si("measure")),
        ("regression", pre("regression")),
        ("kde", pre("kde.s2") + si("kde.s5")),
        ("kmm", si("kmm")),
        ("b2", pre("boundary.B2")),
        ("b5", si("boundary.B5")),
    ] {
        series.push(&format!("{prefix}{stage}"), ms);
    }
}

/// Records the per-layer samples of one decomposed fit.
fn push_layers(series: &mut Series, cfg: &ExperimentConfig, d: &Decomposed) {
    let pre = |key| timing_ms(&d.pre_ctx, key);
    let si = |key| timing_ms(&d.si_ctx, key);
    for (name, ms) in [
        ("pre.ms", d.pre_ms),
        ("pre.mc_ms", pre("mc")),
        ("pre.regression_ms", pre("regression")),
        ("pre.kde_ms", pre("kde.s2")),
        ("pre.b1_ms", pre("boundary.B1")),
        ("pre.b2_ms", pre("boundary.B2")),
        ("si.ms", d.si_ms),
        ("si.measure_ms", si("measure")),
        ("si.kmm_ms", si("kmm")),
        ("si.kde_ms", si("kde.s5")),
        ("si.b3_ms", si("boundary.B3")),
        ("si.b4_ms", si("boundary.B4")),
        ("si.b5_ms", si("boundary.B5")),
        ("eval.ms", d.eval_ms),
    ] {
        series.push(name, ms);
    }
    let boundaries = [&d.pre.b1, &d.pre.b2, &d.si.b3, &d.si.b4, &d.si.b5];
    let iters: usize = boundaries.iter().map(|b| b.solve_iterations()).sum();
    let svs: usize = boundaries
        .iter()
        .map(|b| b.svm().support_vector_count())
        .sum();
    series.push("ocsvm.smo_iters", iters as f64);
    series.push("ocsvm.smo_iters.b2", d.pre.b2.solve_iterations() as f64);
    series.push("ocsvm.smo_iters.b5", d.si.b5.solve_iterations() as f64);
    series.push("ocsvm.support_vectors", svs as f64);
    let (ph, sh) = (d.pre_ctx.solver_health(), d.si_ctx.solver_health());
    series.push(
        "ocsvm.smo_relaxed",
        (ph.smo_relaxed + sh.smo_relaxed) as f64,
    );
    series.push(
        "ocsvm.smo_nonconverged",
        (ph.smo_nonconverged + sh.smo_nonconverged) as f64,
    );
    // The projected-gradient QP only runs inside KMM.
    series.push("kmm.qp_nonconverged", sh.qp_nonconverged as f64);
    series.push("kmm.qp_relaxed", sh.qp_relaxed as f64);
    let kde_ms = pre("kde.s2") + si("kde.s5");
    if kde_ms > 0.0 {
        series.push(
            "kde.samples_per_s",
            2.0 * cfg.kde_samples as f64 / (kde_ms / 1e3),
        );
    }
}

/// Re-fits one boundary on the training population the pipeline used and
/// checks the solve is reproduced exactly.
fn replay_boundary(
    name: &'static str,
    trusted: &Matrix,
    cfg: &ExperimentConfig,
    seed_salt: u64,
    original: &TrustedBoundary,
) -> Result<(), String> {
    let replay = TrustedBoundary::fit_observed(
        name,
        trusted,
        &cfg.enhanced_boundary,
        cfg.seed ^ seed_salt,
        &RunContext::new(),
    )
    .map_err(|e| format!("{name} replay: {e}"))?;
    ensure(
        replay.solve_iterations() == original.solve_iterations()
            && replay.svm().support_vector_count() == original.svm().support_vector_count()
            && replay.svm().rho().to_bits() == original.svm().rho().to_bits(),
        || format!("{name} replay did not reproduce the pipeline's SMO solve"),
    )
}

fn to_shift_space(cfg: &ExperimentConfig, pcms: &Matrix) -> Matrix {
    match cfg.regression_space {
        RegressionSpace::Linear => pcms.clone(),
        RegressionSpace::Log => {
            Matrix::from_fn(pcms.nrows(), pcms.ncols(), |i, j| pcms[(i, j)].ln())
        }
    }
}

/// Re-runs the KMM calibration on the fit's own PCM populations and checks
/// weights and QP health match bit-for-bit.
fn replay_kmm(cfg: &ExperimentConfig, d: &Decomposed) -> Result<(), String> {
    let ctx = RunContext::new();
    let sim = to_shift_space(cfg, &d.pre.pcms);
    let si = to_shift_space(cfg, d.si.dutts.pcms());
    let kmm = KernelMeanMatching::mean_shift_population_observed(
        &sim,
        &si,
        &cfg.kmm,
        cfg.kmm_iterations,
        &ctx,
    )
    .and_then(|shifted| KernelMeanMatching::fit_observed(&shifted, &si, &cfg.kmm, &ctx))
    .map_err(|e| format!("KMM replay: {e}"))?;
    let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    ensure(bits(kmm.weights()) == bits(&d.si.kmm_weights), || {
        "KMM replay did not reproduce the pipeline's weights".into()
    })?;
    let (got, want) = (ctx.solver_health(), d.si_ctx.solver_health());
    ensure(
        (got.qp_nonconverged, got.qp_relaxed) == (want.qp_nonconverged, want.qp_relaxed),
        || "KMM replay did not reproduce the pipeline's QP health".into(),
    )
}

/// The traced pass's attribution of one fit of `cfg`: the decomposed run
/// at the workload's workers, the OCSVM (B2, B5) and KMM replays, and the
/// decomposed run at one worker. Checks that the decomposition reproduces
/// `expected` (the pipeline's own Table 1 for this seed, when the caller
/// has it) and that one and two workers agree. Returns the two-worker
/// decomposition.
pub(crate) fn attribute(
    run: &mut Run,
    cfg: &ExperimentConfig,
    op: usize,
    expected: Option<&[Table1Row]>,
) -> Result<Decomposed, String> {
    let threads = cfg.parallelism.effective_threads();
    // Each replay runs in its own span at the fit's worker count.
    let replay = |t: &mut Tracer, parent, name: &str, f: &dyn Fn() -> Result<(), String>| {
        let (outcome, ms) = t.span(name, op, Some(parent), |_, _| {
            sidefp_parallel::with_threads(threads, || {
                sidefp_parallel::with_determinism(cfg.parallelism.deterministic, f)
            })
        });
        outcome.map(|()| ms)
    };
    type Attributed = (Decomposed, Decomposed, [f64; 3]);
    let (result, _) = run.tracer.span(
        "attribution",
        op,
        None,
        |t, id| -> Result<Attributed, String> {
            let two = decompose(cfg, threads, t, op, id, "fit")
                .map_err(|e| format!("decomposed fit: {e}"))?;
            let replay_ms = [
                replay(t, id, "replay.b2", &|| {
                    replay_boundary("B2", two.pre.s2.fingerprints(), cfg, 0xb2, &two.pre.b2)
                })?,
                replay(t, id, "replay.b5", &|| {
                    replay_boundary("B5", two.si.s5.fingerprints(), cfg, 0xb5, &two.si.b5)
                })?,
                replay(t, id, "replay.kmm", &|| replay_kmm(cfg, &two))?,
            ];
            let one = decompose(cfg, 1, t, op, id, "fit.1worker")
                .map_err(|e| format!("1-worker fit: {e}"))?;
            Ok((two, one, replay_ms))
        },
    );
    let (two, one, replay_ms) = result?;
    if let Some(expected) = expected {
        ensure(two.table1 == expected, || {
            format!(
                "decomposed Table 1 {:?} differs from the pipeline's {expected:?}",
                two.table1
            )
        })?;
    }
    ensure(one.table1 == two.table1 && one.golden == two.golden, || {
        "1-worker and 2-worker Table 1 differ".into()
    })?;
    let series = &mut run.series;
    series.push("ocsvm.replay_fit_ms.b2", replay_ms[0]);
    series.push("ocsvm.replay_fit_ms.b5", replay_ms[1]);
    series.push("kmm.replay_ms", replay_ms[2]);
    push_layers(series, cfg, &two);
    push_stage_times(series, "w2.", &two);
    push_stage_times(series, "w1.", &one);
    push_b5(series, &two.table1);
    run.probe_shape = Some((
        two.si.dutts.fingerprints().ncols(),
        two.si.b5.svm().support_vector_count(),
    ));
    Ok(two)
}
