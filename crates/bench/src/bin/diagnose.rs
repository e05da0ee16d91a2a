//! Diagnostic dump of the experiment geometry: population means/spreads,
//! Trojan displacements and boundary decision statistics. Used to calibrate
//! the synthetic fab against the paper's Table-1 shape.

use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::or_die;
use sidefp_core::{ExperimentConfig, PaperExperiment};
use sidefp_stats::descriptive;

fn col_stats(name: &str, m: &sidefp_linalg::Matrix) {
    let means: Vec<f64> = (0..m.ncols())
        .map(|j| or_die(descriptive::mean(&m.col(j))))
        .collect();
    let stds: Vec<f64> = (0..m.ncols())
        .map(|j| descriptive::std_dev(&m.col(j)).unwrap_or(0.0))
        .collect();
    println!(
        "{name:<22} n={:<6} mean={} std={}",
        m.nrows(),
        sidefp_bench::format_series(&means),
        sidefp_bench::format_series(&stds)
    );
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&Spec {
        usage: "diagnose [seed]",
        switches: &[],
        options: &[],
        positional: (1, Kind::Number),
    });
    let seed = args
        .numbers()
        .next()
        .unwrap_or(ExperimentConfig::default().seed);
    let config = ExperimentConfig {
        seed,
        ..Default::default()
    };
    let artifacts = PaperExperiment::new(config)?.run_with_artifacts()?;
    let pre = &artifacts.premanufacturing;
    let si = &artifacts.silicon;

    println!("== PCM populations ==");
    col_stats("sim PCMs", &pre.pcms);
    col_stats("silicon PCMs", si.dutts.pcms());

    println!("\n== fingerprint populations ==");
    col_stats("S1 (sim)", pre.s1.fingerprints());
    col_stats("S2 (sim+KDE)", pre.s2.fingerprints());
    col_stats("S3 (pred from Si)", si.s3.fingerprints());
    col_stats("S4 (pred from KMM)", si.s4.fingerprints());
    col_stats("S5 (S4+KDE)", si.s5.fingerprints());
    let free = si.dutts.free_fingerprints();
    col_stats("measured free", &free);
    let infested_rows: Vec<usize> = (0..si.dutts.len())
        .filter(|i| si.dutts.variants()[*i] == "amplitude")
        .collect();
    let amp = si.dutts.fingerprints().select_rows(&infested_rows);
    col_stats("measured amplitude", &amp);
    let freq_rows: Vec<usize> = (0..si.dutts.len())
        .filter(|i| si.dutts.variants()[*i] == "frequency")
        .collect();
    let fq = si.dutts.fingerprints().select_rows(&freq_rows);
    col_stats("measured frequency", &fq);

    println!("\n== per-die Trojan displacement (relative, col 0) ==");
    let fp = si.dutts.fingerprints();
    let mut rel_amp = Vec::new();
    let mut rel_freq = Vec::new();
    for c in 0..(si.dutts.len() / 3) {
        let f = fp.row(3 * c)[0];
        rel_amp.push(fp.row(3 * c + 1)[0] / f - 1.0);
        rel_freq.push(fp.row(3 * c + 2)[0] / f - 1.0);
    }
    println!(
        "amplitude trojan: mean {:+.4} std {:.4}",
        descriptive::mean(&rel_amp)?,
        descriptive::std_dev(&rel_amp)?
    );
    println!(
        "frequency trojan: mean {:+.4} std {:.4}",
        descriptive::mean(&rel_freq)?,
        descriptive::std_dev(&rel_freq)?
    );

    println!("\n== boundary decision values on measured devices ==");
    for (name, b) in [
        ("B1", &pre.b1),
        ("B2", &pre.b2),
        ("B3", &si.b3),
        ("B4", &si.b4),
        ("B5", &si.b5),
    ] {
        let mut free_d = Vec::new();
        let mut inf_d = Vec::new();
        for (i, row) in fp.rows_iter().enumerate() {
            let d = b.decision(row)?;
            if si.dutts.variants()[i] == "free" {
                free_d.push(d);
            } else {
                inf_d.push(d);
            }
        }
        println!(
            "{name}: free mean {:+.4} (min {:+.4}) | infested mean {:+.4} (max {:+.4})",
            descriptive::mean(&free_d)?,
            descriptive::min(&free_d)?,
            descriptive::mean(&inf_d)?,
            descriptive::max(&inf_d)?
        );
    }

    println!("\n== regression quality on MC training data ==");
    let preds = pre.predictor.predict_rows(&pre.pcms)?;
    for j in 0..preds.ncols() {
        let r2 = descriptive::r_squared(&pre.s1.fingerprints().col(j), &preds.col(j))?;
        println!("fingerprint {j}: R^2 = {r2:.3}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
