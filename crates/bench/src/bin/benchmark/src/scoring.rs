//! `lot-scoring`: production scoring. Each session fits a model from a
//! forked seed, round-trips it through its artifact bytes and scores
//! 25,000-device batches through a `BatchScorer` on one worker. Every
//! timed batch is a distinct one, synthesized from the session's seed
//! outside the timed call; odd batches carry injected faults so the
//! quarantine and repair paths run.

use std::time::Instant;

use sidefp_core::{
    sanitize_measurements_pinned, BatchScorer, FittedModel, RunContext, ScoredBatch,
};
use sidefp_faults::{FaultClass, FaultPlan};
use sidefp_linalg::Matrix;
use sidefp_parallel::{fork_seed, with_threads};
use sidefp_stats::DetectionLabel;

use crate::fit::{attribute, paper_config};
use crate::{ensure, Run};

/// Share of devices hit by each injected fault class on faulted batches.
const FAULT_RATE: f64 = 0.01;
/// Every this-many sanitized rows are re-scored through `score_into`.
const CHECK_STRIDE: usize = 16;
/// Batch index of a session's warm-up batch, apart from the timed ones.
const WARM_UP: u64 = u64::MAX;

struct Batch {
    fingerprints: Matrix,
    pcms: Matrix,
    faulted: bool,
}

struct Session {
    model: FittedModel,
    scorer: BatchScorer,
    /// Seed the session's batches are synthesized from.
    seed: u64,
    /// Support vectors summed over the five boundaries: kernel
    /// evaluations per scored device.
    kernel_terms: usize,
}

/// Batch `j` of a session seeded `seed`; odd batches are faulted.
fn make_batch(model: &FittedModel, seed: u64, j: u64, devices: usize) -> Result<Batch, String> {
    let seed = fork_seed(seed, j);
    let (mut fingerprints, mut pcms) = model.synthesize_batch(seed, devices);
    let faulted = j % 2 == 1;
    if faulted {
        FaultPlan::single(FaultClass::NanReading, FAULT_RATE, fork_seed(seed, 1))
            .with_fault(FaultClass::DuplicatedRow, FAULT_RATE)
            .with_fault(FaultClass::OutlierSpike, FAULT_RATE)
            .inject(&mut fingerprints, &mut pcms)
            .map_err(|e| format!("fault injection: {e}"))?;
    }
    Ok(Batch {
        fingerprints,
        pcms,
        faulted,
    })
}

fn score_once(
    scorer: &mut BatchScorer,
    batch: &Batch,
    ctx: &RunContext,
) -> Result<ScoredBatch, String> {
    with_threads(1, || {
        scorer.score_batch(&batch.fingerprints, &batch.pcms, ctx)
    })
    .map_err(|e| format!("score_batch: {e}"))
}

/// FNV-1a over a batch's decisions, kept rows and verdicts.
fn digest(batch: &ScoredBatch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    batch
        .decisions
        .as_slice()
        .iter()
        .for_each(|v| eat(v.to_bits()));
    batch.kept.iter().for_each(|&i| eat(i as u64));
    batch
        .verdicts
        .iter()
        .for_each(|v| eat(u64::from(*v == DetectionLabel::TrojanInfested)));
    h
}

/// Set-up of one session: fit, `to_bytes`, `from_bytes`,
/// `BatchScorer::new` and one warm-up batch. Input synthesis is excluded
/// from the timed set-up.
fn open(run: &mut Run, session: u64) -> Result<Session, String> {
    let cfg = paper_config(&run.scale, run.item_seed(session));
    let start = Instant::now();
    let model =
        FittedModel::fit_observed(&cfg, &RunContext::new()).map_err(|e| format!("fit: {e}"))?;
    let fit_s = start.elapsed().as_secs_f64();
    let warm_up = make_batch(&model, cfg.seed, WARM_UP, run.scale.batch_devices)?;

    let start = Instant::now();
    let bytes = model.to_bytes();
    let encode_s = start.elapsed().as_secs_f64();
    let loaded = FittedModel::from_bytes(&bytes).map_err(|e| format!("artifact decode: {e}"))?;
    let decode_s = start.elapsed().as_secs_f64() - encode_s;
    let mut scorer = BatchScorer::new(&loaded);
    let warm = score_once(&mut scorer, &warm_up, &RunContext::new())
        .map_err(|e| format!("warm-up batch: {e}"))?;
    run.setup_done(fit_s + start.elapsed().as_secs_f64());

    let mb = bytes.len() as f64 / 1e6;
    run.series.push("artifact.bytes", bytes.len() as f64);
    run.series
        .push("artifact.encode_mb_per_s", mb / encode_s.max(1e-9));
    run.series
        .push("artifact.decode_mb_per_s", mb / decode_s.max(1e-9));

    let fresh = score_once(&mut BatchScorer::new(&model), &warm_up, &RunContext::new())
        .map_err(|e| format!("in-process scorer: {e}"))?;
    ensure(digest(&fresh) == digest(&warm), || {
        "artifact round-trip changed the verdicts".into()
    })?;

    if run.traced {
        let op = run.attempted;
        let decomposed = attribute(run, &cfg, op, None)?;
        let refit = FittedModel::from_artifacts(&cfg, &decomposed.into_artifacts())
            .map_err(|e| format!("artifact from the decomposed fit: {e}"))?;
        ensure(refit.to_bytes() == bytes, || {
            "decomposed fit gives a different artifact than FittedModel::fit".into()
        })?;
    }

    let kernel_terms = loaded
        .boundaries()
        .iter()
        .map(|b| b.svm().support_vector_count())
        .sum();
    Ok(Session {
        model: loaded,
        scorer,
        seed: cfg.seed,
        kernel_terms,
    })
}

/// Untimed output checks of one scored batch: shapes and sanitizer
/// accounting, a direct sanitize, every 16th sanitized row through the
/// per-device path, and a second scoring that must reproduce the verdicts.
fn check(session: &mut Session, batch: &Batch, scored: &ScoredBatch) -> Result<(), String> {
    let Session { model, scorer, .. } = session;
    let n = batch.fingerprints.nrows();
    let kept = scored.kept.len();
    let health = &scored.health;
    ensure(
        scored.decisions.shape() == (kept, 5) && scored.verdicts.len() == kept,
        || {
            format!(
                "scored batch shape {:?} for {kept} kept devices",
                scored.decisions.shape()
            )
        },
    )?;
    let summary = || {
        format!(
            "{n} devices in, {} kept, {} quarantined, {} repaired, {} winsorized",
            health.devices_kept,
            health.quarantined.len(),
            health.repaired_readings,
            health.winsorized_readings
        )
    };
    ensure(
        health.devices_in == n
            && health.devices_kept == kept
            && kept + health.quarantined.len() == n,
        || format!("sanitizer accounting does not add up: {}", summary()),
    )?;
    // Faulted batches must show the duplicates quarantined and the NaN
    // readings repaired; clean batches must pass untouched by either.
    let (quarantined, repaired) = (!health.quarantined.is_empty(), health.repaired_readings > 0);
    let sanitized_as_expected = if batch.faulted {
        quarantined && repaired
    } else {
        !quarantined && !repaired
    };
    ensure(sanitized_as_expected, || {
        format!(
            "{} batch: {}",
            if batch.faulted { "faulted" } else { "clean" },
            summary()
        )
    })?;
    let sanitized = sanitize_measurements_pinned(
        &batch.fingerprints,
        &batch.pcms,
        &model.sanitizer(),
        model.sanitizer_thresholds(),
    )
    .map_err(|e| format!("sanitize: {e}"))?;
    ensure(sanitized.kept == scored.kept, || {
        "kept rows differ from a direct sanitize".into()
    })?;
    let mut row = [0.0; 5];
    for i in (0..kept).step_by(CHECK_STRIDE) {
        scorer
            .score_into(sanitized.fingerprints.row(i), &mut row)
            .map_err(|e| format!("score_into: {e}"))?;
        let same = row
            .iter()
            .enumerate()
            .all(|(bi, v)| v.to_bits() == scored.decisions[(i, bi)].to_bits());
        ensure(same, || {
            format!("score_into disagrees with the batch on row {i}")
        })?;
    }
    let again = score_once(scorer, batch, &RunContext::new())?;
    ensure(digest(&again) == digest(scored), || {
        "re-scoring a batch changed its verdicts".into()
    })
}

/// Scores batch `j` of the session as operation `op`. In the traced pass
/// batches alternate two untraced, two traced, so both sides see clean and
/// faulted batches alike.
fn score(run: &mut Run, session: &mut Session, op: usize, j: usize) -> Result<(), String> {
    let batch = make_batch(
        &session.model,
        session.seed,
        j as u64,
        run.scale.batch_devices,
    )?;
    let ctx = RunContext::new();
    let scorer = &mut session.scorer;
    let (scored, ms) = run.op(op, (j / 2) % 2 == 1, &ctx, || {
        score_once(scorer, &batch, &ctx)
    });
    let scored = scored?;
    let kept = scored.kept.len();
    run.sample(ms, kept);
    if run.traced {
        let kind = if batch.faulted { "faulted" } else { "clean" };
        let series = &mut run.series;
        series.push(
            &format!("score.sanitize_ms.{kind}"),
            crate::timing_ms(&ctx, "score.sanitize"),
        );
        series.push(
            &format!("score.rows_in.{kind}"),
            scored.health.devices_in as f64,
        );
        series.push(
            "score.boundaries_ms",
            crate::timing_ms(&ctx, "score.boundaries"),
        );
        series.push("score.rows_kept", kept as f64);
        series.push("score.kernel_evals", (kept * session.kernel_terms) as f64);
        if batch.faulted {
            series.push("score.kept.faulted", kept as f64);
        }
    }
    check(session, &batch, &scored)
}

/// Sessions are opened inside the measurement window, one after another;
/// a session that fails to open counts as one failed operation.
pub(crate) fn run(run: &mut Run) {
    run.start_clock();
    let mut session = 0;
    let mut op = 0;
    while run.more() {
        match open(run, session) {
            Err(why) => run.record(Err(format!("session set-up: {why}"))),
            Ok(mut s) => {
                for j in 0..run.scale.batches_per_session {
                    if !run.more() {
                        break;
                    }
                    let outcome = score(run, &mut s, op, j);
                    run.record(outcome);
                    op += 1;
                }
            }
        }
        session += 1;
    }
}
