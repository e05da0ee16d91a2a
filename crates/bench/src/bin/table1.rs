//! Regenerates **Table 1** of the paper: FP/FN of boundaries B1–B5 on the
//! 120 devices (40 Trojan-free, 80 Trojan-infested), plus the golden-chip
//! baseline row.
//!
//! ```text
//! cargo run --release -p sidefp-bench --bin table1 [seed] [--trace]
//! ```
//!
//! `--trace` additionally dumps the run's structured trace events (stage
//! boundaries, solver rescues, quarantine decisions) as JSONL to
//! `target/table1_trace.jsonl`.

use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_core::stages::trojan_test;
use sidefp_core::{ExperimentConfig, PaperExperiment, RunContext};
use sidefp_stats::bootstrap::proportion_interval;
use sidefp_stats::mmd_test::mmd_permutation_test;
use sidefp_stats::roc::RocCurve;

fn main() -> ExitCode {
    let args = Args::from_env(&Spec {
        usage: "table1 [seed] [--trace]",
        switches: &["--trace"],
        options: &[],
        positional: (1, Kind::Number),
    });
    let seed = args
        .numbers()
        .next()
        .unwrap_or(ExperimentConfig::default().seed);
    let trace = args.switch("--trace");
    let config = ExperimentConfig {
        seed,
        ..Default::default()
    };
    println!(
        "Paper experiment: {} chips x 3 versions = {} DUTTs, {} MC samples, {} KDE samples, seed {}",
        config.chips,
        config.device_count(),
        config.mc_samples,
        config.kde_samples,
        seed
    );

    let experiment = match PaperExperiment::new(config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("configuration error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = RunContext::new();
    let artifacts = match sidefp_bench::timed("table1", || experiment.run_in_context(&ctx)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!();
    println!("{}", artifacts.result.render_table1());
    // `render_table1` only appends the health block when something
    // degraded; always print the one-line summary so a clean run is
    // visibly clean.
    if artifacts.result.health.is_clean() {
        println!("{}", artifacts.result.health.render());
    }
    println!("worker threads: {}", artifacts.result.resolved_threads);

    if trace {
        let path = "target/table1_trace.jsonl";
        if std::fs::create_dir_all("target").is_ok()
            && std::fs::write(path, ctx.trace_jsonl()).is_ok()
        {
            println!(
                "Trace events written to {path} ({} events, {} dropped)",
                ctx.trace_len(),
                ctx.trace_dropped()
            );
        }
    }

    // ROC analysis: the full decision functions, beyond the operating point.
    println!("ROC analysis (AUC / trusted-coverage at zero missed Trojans):");
    let dutts = &artifacts.silicon.dutts;
    let boundaries: [(&str, &sidefp_core::TrustedBoundary); 5] = [
        ("B1", &artifacts.premanufacturing.b1),
        ("B2", &artifacts.premanufacturing.b2),
        ("B3", &artifacts.silicon.b3),
        ("B4", &artifacts.silicon.b4),
        ("B5", &artifacts.silicon.b5),
    ];
    for (name, boundary) in boundaries {
        let scores: Result<Vec<_>, _> = dutts
            .fingerprints()
            .rows_iter()
            .enumerate()
            .map(|(i, row)| {
                boundary
                    .decision(row)
                    .map(|score| (score, dutts.labels()[i]))
            })
            .collect();
        match scores.and_then(|s| RocCurve::from_scores(s).map_err(Into::into)) {
            Ok(roc) => println!(
                "  {name}: AUC {:.3}   TPR@FPR=0 {:.2}",
                roc.auc(),
                roc.tpr_at_zero_fpr()
            ),
            Err(e) => println!("  {name}: ROC failed: {e}"),
        }
    }
    println!();

    // Statistical certification of S5 vs. the measured populations: the
    // quantitative version of Figure 4(f)'s visual overlap.
    println!("Two-sample MMD against the S5 population (squared MMD; smaller = closer):");
    let s5 = artifacts.silicon.s5.fingerprints();
    // Subsample S5 to keep the permutation Gram matrix small.
    let s5_small = s5.select_rows(&(0..200.min(s5.nrows())).collect::<Vec<_>>());
    let free = dutts.free_fingerprints();
    let variant_rows = |tag: &str| {
        let idx: Vec<usize> = (0..dutts.len())
            .filter(|i| dutts.variants()[*i] == tag)
            .collect();
        dutts.fingerprints().select_rows(&idx)
    };
    for (label, sample) in [
        ("Trojan-free", free),
        ("amplitude Trojans", variant_rows("amplitude")),
        ("frequency Trojans", variant_rows("frequency")),
    ] {
        match mmd_permutation_test(&s5_small, &sample, None, 200, seed) {
            Ok(test) => println!(
                "  S5 vs {label:<18} MMD^2 {:.4}  (permutation p = {:.3})",
                test.statistic, test.p_value,
            ),
            Err(e) => println!("  S5 vs {label}: test failed: {e}"),
        }
    }
    println!("  (S5 deliberately over-covers the Trojan-free population — KDE tails —");
    println!("   so a small positive MMD is expected; the Trojan clusters sit an order");
    println!("   of magnitude farther.)");
    println!();

    // Bootstrap confidence intervals on B5's rates (the paper reports
    // point counts only).
    let b5_scores: Vec<(bool, bool)> = dutts
        .fingerprints()
        .rows_iter()
        .enumerate()
        .map(|(i, row)| {
            let accepted = artifacts.silicon.b5.decision(row).unwrap_or(-1.0) >= 0.0;
            let infested = dutts.labels()[i] == sidefp_stats::DetectionLabel::TrojanInfested;
            (accepted, infested)
        })
        .collect();
    let missed: Vec<bool> = b5_scores
        .iter()
        .filter(|(_, infested)| *infested)
        .map(|(accepted, _)| *accepted)
        .collect();
    let alarms: Vec<bool> = b5_scores
        .iter()
        .filter(|(_, infested)| !*infested)
        .map(|(accepted, _)| !*accepted)
        .collect();
    if let (Ok(fp_ci), Ok(fn_ci)) = (
        proportion_interval(&missed, 0.95, 2000, seed),
        proportion_interval(&alarms, 0.95, 2000, seed ^ 1),
    ) {
        println!(
            "B5 bootstrap 95% CIs: missed-Trojan rate {:.3} [{:.3}, {:.3}], false-alarm rate {:.3} [{:.3}, {:.3}]",
            fp_ci.estimate, fp_ci.lower, fp_ci.upper, fn_ci.estimate, fn_ci.lower, fn_ci.upper
        );
        println!();
    }

    println!("Per-variant acceptance through B5 (devices inside the trusted region):");
    match trojan_test::variant_breakdown(&artifacts.silicon.b5, &artifacts.silicon.dutts) {
        Ok(rows) => {
            for (variant, accepted, total) in rows {
                println!("  {variant:<10} {accepted:>3}/{total}");
            }
        }
        Err(e) => eprintln!("breakdown failed: {e}"),
    }

    // Persist the machine-readable report.
    if std::fs::create_dir_all("target").is_ok() {
        let md = artifacts.result.render_markdown();
        if std::fs::write("target/table1.md", md).is_ok() {
            println!("Markdown report written to target/table1.md");
            println!();
        }
    }

    println!("Paper reference (Table 1):");
    println!("  S1 FP 0/80 FN 40/40   S2 FP 0/80 FN 40/40   S3 FP 0/80 FN 24/40");
    println!("  S4 FP 0/80 FN 18/40   S5 FP 0/80 FN  3/40");
    ExitCode::SUCCESS
}
