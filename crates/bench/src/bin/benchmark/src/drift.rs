//! `drift-stream`: drifting wafer-lot streams at paper defaults. Each
//! stream is opened with `PaperExperiment::stream` (its set-up) and
//! advanced lot by lot; every `advance()` is one operation.

use std::time::Instant;

use sidefp_core::{LotAction, LotOutcome, PaperExperiment, RecalHealth, RunContext, Table1Row};
use sidefp_faults::{DriftClass, DriftPlan};
use sidefp_parallel::{fork_seed, with_threads};

use crate::fit::{attribute, check_table1, paper_config, push_b5};
use crate::{ensure, workers, Run};

/// The `drift` bench binary's plan: a 0.5 slow ramp from lot 1 plus a 1.5
/// mean shift at lot 3.
fn drift_plan(seed: u64) -> DriftPlan {
    DriftPlan {
        seed,
        ..DriftPlan::none()
    }
    .with_drift(DriftClass::SlowRamp, 0.5, 1)
    .with_drift(DriftClass::MeanShift, 1.5, 3)
}

/// Checks one lot. `calibration` is the single-shot decomposed fit of the
/// stream's configuration: the calibration lot (lot 0) measures the same
/// devices and fits B1–B4 the same way, so those rows must match.
fn check_lot(
    outcome: &LotOutcome,
    lot: usize,
    calibration: Option<&[Table1Row]>,
) -> Result<(), String> {
    ensure(outcome.lot == lot, || {
        format!("lot index {} for lot {lot}", outcome.lot)
    })?;
    check_table1(&outcome.table1, outcome.dutts.len())?;
    if let (0, Some(rows)) = (lot, calibration) {
        ensure(outcome.table1[..4] == rows[..4], || {
            "calibration lot B1-B4 differ from the single-shot fit".into()
        })?;
    }
    Ok(())
}

pub(crate) fn run(run: &mut Run) {
    run.start_clock();
    let mut totals = RecalHealth::default();
    let mut stream_no = 0;
    let mut op = 0;
    while run.more() {
        // Whole streams alternate between untraced and traced, so both
        // sides see the same mix of calibration, accepted, incremental and
        // refit lots.
        let traced = stream_no % 2 == 1;
        let cfg = paper_config(&run.scale, run.item_seed(stream_no));
        let ctx = RunContext::new();
        let start = Instant::now();
        let stream = PaperExperiment::new(cfg.clone())
            .and_then(|e| e.stream_observed(drift_plan(fork_seed(cfg.seed, 1)), &ctx));
        run.setup_done(start.elapsed().as_secs_f64());
        stream_no += 1;
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                run.record(Err(format!("stream set-up: {e}")));
                continue;
            }
        };
        let calibration = if run.traced {
            match attribute(run, &cfg, op, None) {
                Ok(d) => Some(d.table1),
                Err(why) => {
                    run.record(Err(why));
                    continue;
                }
            }
        } else {
            None
        };

        let mut advanced = 0;
        for lot in 0..run.scale.lots_per_stream {
            if !run.more() {
                break;
            }
            let (outcome, ms) = run.op(op, traced, &ctx, || {
                with_threads(workers(), || stream.advance())
            });
            let checked = outcome.map_err(|e| format!("advance: {e}")).and_then(|o| {
                run.sample(ms, o.dutts.len());
                if run.traced {
                    push_b5(&mut run.series, &o.table1);
                    match o.action {
                        LotAction::Refitted => run.series.push("recal.refit_lot_ms", ms),
                        LotAction::Recalibrated => run.series.push("recal.incremental_lot_ms", ms),
                        LotAction::Accepted => {}
                    }
                }
                check_lot(&o, lot, calibration.as_deref())
            });
            advanced += usize::from(checked.is_ok());
            run.record(checked);
            op += 1;
        }

        let h = stream.health();
        if h.lots != advanced || h.accepted + h.recalibrated + h.refitted != h.lots {
            run.record(Err(format!(
                "recalibration accounting {h:?} after {advanced} lots"
            )));
        }
        totals.lots += h.lots;
        totals.accepted += h.accepted;
        totals.recalibrated += h.recalibrated;
        totals.refitted += h.refitted;
        totals.escalations += h.escalations;
        totals.selfcheck_failures += h.selfcheck_failures;
    }
    if run.traced && totals.lots > 0 {
        let per_lot = |n: usize| n as f64 / totals.lots as f64;
        run.series
            .push("recal.accept_share", per_lot(totals.accepted));
        run.series
            .push("recal.incremental_share", per_lot(totals.recalibrated));
        run.series
            .push("recal.refit_share", per_lot(totals.refitted));
        run.series
            .push("recal.escalations_per_lot", per_lot(totals.escalations));
        run.series.push(
            "recal.selfcheck_failures_per_lot",
            per_lot(totals.selfcheck_failures),
        );
    }
}
