//! Large-`n` kernel layer scaling bench: exact versus sub-quadratic
//! approximation paths (Nyström, random Fourier features, binned KDE).
//!
//! Usage:
//!
//! ```text
//! kernels          # print the scaling table
//! kernels --json   # additionally dump BENCH_kernels.json
//! ```
//!
//! Device populations n ∈ {1k, 10k, 50k}. The exact paths are skipped at
//! 50k (the dense/cached O(n²) solves stop being practical there — that
//! is the point of the approximation layer) and the exact KMM is skipped
//! beyond 1k (its dense train Gram would need 800 MB at 10k). All OCSVM
//! solves share one SMO budget (tol, max_iter) and all KMM solves share
//! one projected-gradient budget, so the wall-clock ratios compare kernel
//! representations, not convergence settings.
//!
//! Build with `--release`; the debug profile distorts the hot paths.

use std::time::Instant;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::or_die;
use sidefp_bench::record::{self, Value};
use sidefp_linalg::Matrix;
use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
use sidefp_stats::{
    Kernel, KernelApprox, KernelMeanMatching, KmmConfig, OneClassSvm, OneClassSvmConfig,
};

/// Deterministic synthetic population: mixture-free anisotropic blob with
/// per-coordinate phase offsets (no RNG dependency, identical across runs).
fn population(n: usize, d: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, d, |i, j| {
        let t = (i as f64 + 1.0) * 0.618_033_988_749_895 + salt as f64 * 0.1;
        let u = (j as f64 + 1.0) * 0.414_213_562_373_095;
        // Two incommensurate sinusoids approximate a bounded light-tailed
        // cloud well enough for solver timing purposes.
        (t * (j as f64 + 1.5)).sin() + 0.3 * (u * (i as f64 + 2.5)).cos()
    })
}

/// Minimum wall-clock over `reps` runs, in milliseconds (load noise on a
/// shared box is one-sided).
fn time_min_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut value = f();
    let mut best = start.elapsed().as_secs_f64() * 1000.0;
    for _ in 1..reps.max(1) {
        let start = Instant::now();
        value = f();
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    (best, value)
}

/// One population size's measurements (`None` = path skipped at this n).
struct SizeReport {
    n: usize,
    ocsvm_exact_ms: Option<f64>,
    ocsvm_nystrom_ms: f64,
    ocsvm_rff_ms: f64,
    kmm_exact_ms: Option<f64>,
    kmm_lowrank_ms: f64,
    kde_fit_ms: f64,
    kde_dense_eval_ms: Option<f64>,
    kde_binned_build_ms: f64,
    kde_binned_eval_ms: f64,
}

fn ratio(num: Option<f64>, den: f64) -> String {
    match num {
        Some(v) => format!("{:.1}x", v / den),
        None => "-".into(),
    }
}

fn bench_size(n: usize, reps: usize) -> Result<SizeReport, Box<dyn std::error::Error>> {
    const SVM_DIM: usize = 6;
    const KDE_DIM: usize = 3;
    const QUERIES: usize = 200;

    let data = population(n, SVM_DIM, 1);
    let svm_cfg = |approx: KernelApprox| OneClassSvmConfig {
        nu: 0.05,
        kernel: Kernel::Rbf { gamma: 0.5 },
        tol: 1e-6,
        max_iter: 100_000,
        approx,
    };

    let ocsvm_exact_ms = (n <= 10_000).then(|| {
        time_min_ms(reps, || {
            or_die(OneClassSvm::fit(&data, &svm_cfg(KernelApprox::Exact)))
        })
        .0
    });
    let (ocsvm_nystrom_ms, _) = time_min_ms(reps, || {
        or_die(OneClassSvm::fit(
            &data,
            &svm_cfg(KernelApprox::Nystrom { rank: 128 }),
        ))
    });
    let (ocsvm_rff_ms, _) = time_min_ms(reps, || {
        or_die(OneClassSvm::fit(
            &data,
            &svm_cfg(KernelApprox::Rff { features: 256 }),
        ))
    });

    let test = population(n / 2, SVM_DIM, 2);
    let kmm_cfg = |approx: KernelApprox| KmmConfig {
        kernel: Some(Kernel::Rbf { gamma: 0.5 }),
        max_iter: 500,
        approx,
        ..Default::default()
    };
    let kmm_exact_ms = (n <= 1_000).then(|| {
        time_min_ms(reps, || {
            or_die(KernelMeanMatching::fit(
                &data,
                &test,
                &kmm_cfg(KernelApprox::Exact),
            ))
        })
        .0
    });
    let (kmm_lowrank_ms, _) = time_min_ms(reps, || {
        or_die(KernelMeanMatching::fit(
            &data,
            &test,
            &kmm_cfg(KernelApprox::Nystrom { rank: 128 }),
        ))
    });

    // KDE: the pipeline's production bandwidth (0.35) on a compact query
    // panel; eval is the pipeline-relevant cost (fit happens once, scoring
    // happens per device and per synthetic sample).
    let kde_data = population(n, KDE_DIM, 3);
    let queries = population(QUERIES, KDE_DIM, 4);
    let kde_cfg = KdeConfig {
        bandwidth: Some(0.35),
        alpha: 0.5,
    };
    let (kde_fit_ms, kde) = time_min_ms(1, || or_die(AdaptiveKde::fit(&kde_data, &kde_cfg)));
    let kde_dense_eval_ms =
        (n <= 10_000).then(|| time_min_ms(reps, || or_die(kde.density_rows(&queries))).0);
    let (kde_binned_build_ms, binned) = time_min_ms(reps, || kde.binned());
    let (kde_binned_eval_ms, binned_rows) =
        time_min_ms(reps, || or_die(binned.density_rows(&queries)));
    // Guard against a silently wrong index: binned densities must track the
    // dense ones whenever both were computed.
    if n <= 10_000 {
        let dense_rows = kde.density_rows(&queries)?;
        for (i, (a, b)) in dense_rows.iter().zip(&binned_rows).enumerate() {
            if (a - b).abs() > 1e-9 * a.abs().max(1e-300) {
                return Err(format!("binned KDE diverged at query {i}: {a} vs {b}").into());
            }
        }
    }

    Ok(SizeReport {
        n,
        ocsvm_exact_ms,
        ocsvm_nystrom_ms,
        ocsvm_rff_ms,
        kmm_exact_ms,
        kmm_lowrank_ms,
        kde_fit_ms,
        kde_dense_eval_ms,
        kde_binned_build_ms,
        kde_binned_eval_ms,
    })
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&Spec {
        usage: "kernels [--json] [n ...]",
        switches: &["--json"],
        options: &[],
        positional: (usize::MAX, Kind::Number),
    });
    let json = args.switch("--json");
    // Bare numeric args override the default size sweep (handy for quick
    // single-size runs while tuning); the committed BENCH_kernels.json is
    // always produced from the full default sweep.
    let mut sizes: Vec<usize> = args.numbers().map(|n| n as usize).collect();
    if sizes.is_empty() {
        sizes = vec![1_000, 10_000, 50_000];
    }

    let reports: Vec<SizeReport> = sizes
        .iter()
        .map(|&n| {
            let reps = if n >= 50_000 { 1 } else { 2 };
            eprintln!("benchmarking n = {n} ...");
            bench_size(n, reps)
        })
        .collect::<Result<_, _>>()?;

    println!("kernel layer scaling (ms, min over reps; '-' = skipped):");
    println!(
        "{:>7} {:>12} {:>12} {:>9} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "n",
        "svm_exact",
        "svm_nystrom",
        "svm_rff",
        "kmm_exact",
        "kmm_lowrank",
        "kde_fit",
        "kde_dense",
        "kde_binned",
        "bin_build"
    );
    for r in &reports {
        println!(
            "{:>7} {:>12} {:>12.1} {:>9.1} {:>12} {:>12.1} {:>10.1} {:>12} {:>12.2} {:>10.1}",
            r.n,
            r.ocsvm_exact_ms
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
            r.ocsvm_nystrom_ms,
            r.ocsvm_rff_ms,
            r.kmm_exact_ms
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
            r.kmm_lowrank_ms,
            r.kde_fit_ms,
            r.kde_dense_eval_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.kde_binned_eval_ms,
            r.kde_binned_build_ms,
        );
    }
    println!("speedups vs exact (same budgets):");
    for r in &reports {
        println!(
            "  n={:<6} svm: nystrom {} rff {}   kde eval: binned {}",
            r.n,
            ratio(r.ocsvm_exact_ms, r.ocsvm_nystrom_ms),
            ratio(r.ocsvm_exact_ms, r.ocsvm_rff_ms),
            ratio(r.kde_dense_eval_ms, r.kde_binned_eval_ms),
        );
    }

    if json {
        let sizes = reports.iter().map(|r| {
            record::object([
                ("n", Value::from(r.n)),
                ("ocsvm_exact_ms", r.ocsvm_exact_ms.into()),
                ("ocsvm_nystrom_ms", r.ocsvm_nystrom_ms.into()),
                ("ocsvm_rff_ms", r.ocsvm_rff_ms.into()),
                ("kmm_exact_ms", r.kmm_exact_ms.into()),
                ("kmm_lowrank_ms", r.kmm_lowrank_ms.into()),
                ("kde_fit_ms", r.kde_fit_ms.into()),
                ("kde_dense_eval_ms", r.kde_dense_eval_ms.into()),
                ("kde_binned_build_ms", r.kde_binned_build_ms.into()),
                ("kde_binned_eval_ms", r.kde_binned_eval_ms.into()),
            ])
        });
        let bench = record::object([
            ("bench", Value::from("kernels")),
            ("sizes", Value::List(sizes.collect())),
        ]);
        std::fs::write("BENCH_kernels.json", record::write(&bench))?;
        println!("wrote BENCH_kernels.json");
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
