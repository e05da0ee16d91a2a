//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_linalg::Matrix;
use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
use sidefp_stats::qp::{SmoConfig, SmoSolver};
use sidefp_stats::roc::RocCurve;
use sidefp_stats::{
    descriptive, DetectionLabel, Kernel, KernelMeanMatching, KmmConfig, OneClassSvm,
    OneClassSvmConfig, Pca, StandardScaler,
};

/// Strategy: an n×d data matrix with entries in a moderate range.
fn data_matrix(n: usize, d: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0_f64..5.0, n * d)
        .prop_map(move |v| Matrix::from_vec(n, d, v).expect("sized"))
}

/// Strategy: a data matrix guaranteed to have per-column spread.
fn spread_matrix(n: usize, d: usize) -> impl Strategy<Value = Matrix> {
    data_matrix(n, d).prop_map(move |mut m| {
        // Inject deterministic spread so scalers/KDE never see zero variance.
        for i in 0..n {
            for j in 0..d {
                m[(i, j)] += (i as f64) * 0.37 + (j as f64) * 0.11;
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scaler_roundtrip_is_identity(m in spread_matrix(12, 3)) {
        let scaler = StandardScaler::fit(&m).unwrap();
        let z = scaler.transform(&m).unwrap();
        let back = scaler.inverse_transform(&z).unwrap();
        prop_assert!((&back - &m).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn scaler_output_is_standardized(m in spread_matrix(20, 2)) {
        let scaler = StandardScaler::fit(&m).unwrap();
        let z = scaler.transform(&m).unwrap();
        for j in 0..2 {
            let col = z.col(j);
            let mean = descriptive::mean(&col).unwrap();
            prop_assert!(mean.abs() < 1e-9, "column {j} mean {mean}");
            let sd = descriptive::std_dev(&col).unwrap();
            prop_assert!((sd - 1.0).abs() < 1e-9, "column {j} std {sd}");
        }
    }

    #[test]
    fn rbf_kernel_bounded_and_symmetric(
        x in proptest::collection::vec(-10.0_f64..10.0, 4),
        y in proptest::collection::vec(-10.0_f64..10.0, 4),
        gamma in 0.01_f64..5.0,
    ) {
        let k = Kernel::Rbf { gamma };
        let v = k.eval(&x, &y);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((v - k.eval(&y, &x)).abs() < 1e-15);
        prop_assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gram_matrix_is_psd(m in data_matrix(8, 2), gamma in 0.05_f64..2.0) {
        let k = Kernel::Rbf { gamma };
        let g = k.gram_symmetric(&m);
        let eig = g.symmetric_eigen().unwrap();
        for &v in eig.eigenvalues() {
            prop_assert!(v > -1e-8, "gram eigenvalue {v}");
        }
    }

    #[test]
    fn smo_invariants_hold(m in data_matrix(10, 2), gamma in 0.05_f64..2.0) {
        let q = Kernel::Rbf { gamma }.gram_symmetric(&m);
        let sol = SmoSolver::new(SmoConfig { upper: 0.25, ..Default::default() })
            .solve(&q)
            .unwrap();
        let mass: f64 = sol.alpha.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        for a in &sol.alpha {
            prop_assert!(*a >= -1e-12 && *a <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn ocsvm_training_rejection_bounded_by_nu(seed in 0_u64..1000) {
        let mvn = sidefp_stats::MultivariateNormal::independent(
            vec![0.0, 0.0], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = mvn.sample_matrix(&mut rng, 80);
        let svm = OneClassSvm::fit(&data, &OneClassSvmConfig {
            nu: 0.15,
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        }).unwrap();
        let rejected = data
            .rows_iter()
            .filter(|r| svm.decision_function(r).unwrap() < 0.0)
            .count() as f64 / 80.0;
        prop_assert!(rejected <= 0.15 + 0.1, "rejected {rejected}");
    }

    #[test]
    fn kde_density_nonnegative_everywhere(
        m in spread_matrix(10, 2),
        q in proptest::collection::vec(-20.0_f64..20.0, 2),
    ) {
        let kde = AdaptiveKde::fit(&m, &KdeConfig::default()).unwrap();
        let d = kde.density(&q).unwrap();
        prop_assert!(d >= 0.0 && d.is_finite());
    }

    #[test]
    fn kde_samples_have_fitted_dimension(m in spread_matrix(8, 3), seed in 0_u64..100) {
        let kde = AdaptiveKde::fit(&m, &KdeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = kde.sample(&mut rng);
        prop_assert_eq!(s.len(), 3);
        prop_assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn kmm_weights_feasible(seed in 0_u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tr = sidefp_stats::MultivariateNormal::independent(vec![0.0], &[1.0])
            .unwrap()
            .sample_matrix(&mut rng, 30);
        let te = sidefp_stats::MultivariateNormal::independent(vec![0.8], &[1.0])
            .unwrap()
            .sample_matrix(&mut rng, 25);
        let cfg = KmmConfig { upper: 50.0, ..Default::default() };
        let kmm = KernelMeanMatching::fit(&tr, &te, &cfg).unwrap();
        for w in kmm.weights() {
            prop_assert!(*w >= -1e-9 && *w <= 50.0 + 1e-9, "weight {w}");
        }
        let mean_w = descriptive::mean(kmm.weights()).unwrap();
        // Band constraint with default ε.
        let eps = ((30.0_f64).sqrt() - 1.0) / (30.0_f64).sqrt();
        prop_assert!((mean_w - 1.0).abs() <= eps + 1e-6, "mean weight {mean_w}");
    }

    #[test]
    fn pca_projection_norm_never_exceeds_centered_norm(m in spread_matrix(15, 4)) {
        // Projection onto an orthonormal basis cannot increase length.
        let pca = Pca::fit(&m).unwrap();
        let proj = pca.project(&m, 2).unwrap();
        let means = m.column_means();
        for i in 0..m.nrows() {
            let centered_norm: f64 = m
                .row(i)
                .iter()
                .zip(&means)
                .map(|(v, mu)| (v - mu) * (v - mu))
                .sum::<f64>()
                .sqrt();
            let proj_norm: f64 = proj.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            prop_assert!(proj_norm <= centered_norm + 1e-9);
        }
    }

    #[test]
    fn quantile_is_monotone(
        data in proptest::collection::vec(-100.0_f64..100.0, 5..40),
        q1 in 0.0_f64..1.0,
        q2 in 0.0_f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = descriptive::quantile(&data, lo).unwrap();
        let b = descriptive::quantile(&data, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn roc_auc_is_invariant_under_monotone_transforms(
        scores in proptest::collection::vec(-5.0_f64..5.0, 6..30),
    ) {
        // Label by parity of index; require both classes present.
        let labeled: Vec<(f64, DetectionLabel)> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let label = if i % 2 == 0 {
                    DetectionLabel::TrojanFree
                } else {
                    DetectionLabel::TrojanInfested
                };
                (*s, label)
            })
            .collect();
        let auc = RocCurve::from_scores(labeled.clone()).unwrap().auc();
        // Strictly increasing transform: exp(x/3) + x.
        let transformed: Vec<(f64, DetectionLabel)> = labeled
            .iter()
            .map(|(s, l)| ((s / 3.0).exp() + s, *l))
            .collect();
        let auc_t = RocCurve::from_scores(transformed).unwrap().auc();
        prop_assert!((auc - auc_t).abs() < 1e-9, "AUC {auc} vs {auc_t}");
    }

    #[test]
    fn roc_auc_is_bounded(scores in proptest::collection::vec(-5.0_f64..5.0, 4..40)) {
        let labeled: Vec<(f64, DetectionLabel)> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (*s, if i % 3 == 0 {
                    DetectionLabel::TrojanFree
                } else {
                    DetectionLabel::TrojanInfested
                })
            })
            .collect();
        let roc = RocCurve::from_scores(labeled).unwrap();
        prop_assert!((0.0..=1.0).contains(&roc.auc()));
        prop_assert!((0.0..=1.0).contains(&roc.tpr_at_zero_fpr()));
    }

    #[test]
    fn correlation_is_scale_invariant(
        x in proptest::collection::vec(-10.0_f64..10.0, 10),
        scale in 0.1_f64..10.0,
        offset in -5.0_f64..5.0,
    ) {
        // Guard against degenerate zero-variance draws.
        let spread: Vec<f64> = x.iter().enumerate().map(|(i, v)| v + i as f64 * 0.21).collect();
        let y: Vec<f64> = spread.iter().map(|v| v * scale + offset).collect();
        let r = descriptive::pearson_correlation(&spread, &y).unwrap();
        prop_assert!((r - 1.0).abs() < 1e-9, "r = {r}");
    }

    // --- solver-resilience fuzzing: starved budgets and ill-conditioned
    // --- inputs must degrade (relaxed accept / typed error), never panic.

    #[test]
    fn starved_smo_never_panics_and_reports_its_gap(
        m in data_matrix(10, 2),
        max_iter in 0_usize..20,
        gamma in 0.05_f64..2.0,
    ) {
        let q = Kernel::Rbf { gamma }.gram_symmetric(&m);
        let sol = SmoSolver::new(SmoConfig {
            upper: 0.25,
            max_iter,
            tol: 1e-12,
        })
        .solve(&q)
        .unwrap();
        prop_assert!(sol.kkt_gap.is_finite() && sol.kkt_gap >= 0.0);
        let mass: f64 = sol.alpha.iter().sum();
        // Even a non-converged exit must leave the iterate feasible.
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        for a in &sol.alpha {
            prop_assert!(*a >= -1e-12 && *a <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn starved_box_band_qp_never_panics_and_stays_feasible(
        m in data_matrix(12, 2),
        max_iter in 0_usize..30,
        gamma in 0.05_f64..2.0,
    ) {
        let k = Kernel::Rbf { gamma }.gram_symmetric(&m);
        let kappa = vec![1.0; 12];
        let sol = sidefp_stats::qp::solve_box_band(
            &k,
            &kappa,
            &sidefp_stats::qp::BoxBandConfig {
                upper: 10.0,
                max_iter,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert!(sol.final_delta.is_finite() || sol.converged);
        for b in &sol.beta {
            prop_assert!(*b >= -1e-9 && *b <= 10.0 + 1e-9, "beta {b}");
        }
    }

    #[test]
    fn ridged_cholesky_on_random_symmetric_matrices_never_panics(
        vals in proptest::collection::vec(-3.0_f64..3.0, 16),
    ) {
        // Symmetrize an arbitrary 4×4: often indefinite, sometimes nearly
        // singular. The rescue must return Ok or a typed error — no panic.
        let raw = Matrix::from_vec(4, 4, vals).unwrap();
        let sym = Matrix::from_fn(4, 4, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]));
        match sidefp_linalg::cholesky_ridged(&sym, &sidefp_linalg::Escalation::default()) {
            Ok(rec) => {
                let x = rec.value.solve(&[1.0; 4]).unwrap();
                prop_assert!(x.iter().all(|v| v.is_finite()));
            }
            Err(e) => {
                // Strong indefiniteness is allowed to fail, but only with
                // the factorization's own typed error.
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
    }
}

/// Warm-started SMO against a cold fit on a mildly drifted population, at
/// every seed of `0..200`. Per seed: both fits converge, they give the same
/// boundary within 1e-3, and the warm fit is bit-identical at 1 and 8
/// threads. Per-seed step counts are not ordered — a cold solve from the
/// sparse one-class start can beat a warm one (seed 13: 2,087 warm vs 730
/// cold steps), and the earlier uniform-start solver had warm ≥ cold at
/// seeds 70, 120, 160, 168 and 197 — so the cost claim
/// `OneClassSvm::fit_warm_observed` makes is checked on the sum over the
/// range: warm steps < cold steps.
#[test]
fn warm_started_smo_matches_cold_fit_with_fewer_iterations() {
    let (mut warm_steps, mut cold_steps) = (0, 0);
    for seed in 0_u64..200 {
        let mvn =
            sidefp_stats::MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let base = mvn.sample_matrix(&mut rng, 60);
        let cfg = OneClassSvmConfig {
            nu: 0.1,
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let original = OneClassSvm::fit(&base, &cfg).unwrap();
        assert_eq!(original.dual_alpha().len(), 60, "seed {seed}");
        // Drift the population slightly (small mean shift + mild per-row
        // wobble) — the warm-start regime the streaming-lot driver hits.
        let mut drifted = base.clone();
        for i in 0..drifted.nrows() {
            for j in 0..drifted.ncols() {
                drifted[(i, j)] += 0.02 + 0.002 * ((i % 7) as f64);
            }
        }
        let obs = sidefp_stats::RunContext::new();
        let cold = OneClassSvm::fit_observed(&drifted, &cfg, &obs).unwrap();
        let warm =
            OneClassSvm::fit_warm_observed(&drifted, &cfg, original.dual_alpha(), &obs).unwrap();
        // Both solves converged (no relaxed or best-effort acceptance)…
        assert!(
            obs.solver_health().is_clean(),
            "seed {seed}: {:?}",
            obs.solver_health()
        );
        warm_steps += warm.solve_iterations();
        cold_steps += cold.solve_iterations();
        // …to the same boundary within solver tolerance.
        for row in drifted.rows_iter() {
            let a = warm.decision_function(row).unwrap();
            let b = cold.decision_function(row).unwrap();
            assert!((a - b).abs() < 1e-3, "seed {seed}: decision {a} vs {b}");
        }
        // Bit-identical at any thread count.
        let fit_warm = || {
            OneClassSvm::fit_warm_observed(
                &drifted,
                &cfg,
                original.dual_alpha(),
                &sidefp_stats::RunContext::new(),
            )
            .unwrap()
        };
        let d1 = sidefp_parallel::with_threads(1, fit_warm);
        let d8 = sidefp_parallel::with_threads(8, fit_warm);
        assert_eq!(d1.dual_alpha(), d8.dual_alpha(), "seed {seed}");
        assert_eq!(d1.rho().to_bits(), d8.rho().to_bits(), "seed {seed}");
        assert_eq!(d1.solve_iterations(), d8.solve_iterations(), "seed {seed}");
    }
    // Strictly cheaper than cold fits over the whole range.
    assert!(
        warm_steps < cold_steps,
        "warm {warm_steps} vs cold {cold_steps} steps over seeds 0..200"
    );
}
