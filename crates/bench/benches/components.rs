//! Criterion micro-benchmarks for the statistical and cryptographic
//! components the detection flow is built from.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_chip::aes::Aes128;
use sidefp_linalg::Matrix;
use sidefp_stats::bootstrap::proportion_interval;
use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
use sidefp_stats::mars::{Mars, MarsConfig};
use sidefp_stats::mmd_test::mmd_permutation_test;
use sidefp_stats::roc::RocCurve;
use sidefp_stats::{
    DetectionLabel, GramMatrix, Kernel, KernelMeanMatching, KmmConfig, MultivariateNormal,
    OneClassSvm, OneClassSvmConfig, Pca,
};

fn gaussian(n: usize, d: usize, seed: u64) -> Matrix {
    let mvn = MultivariateNormal::independent(vec![0.0; d], &vec![1.0; d]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    mvn.sample_matrix(&mut rng, n)
}

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new([0x2b; 16]);
    let block = [0x42u8; 16];
    c.bench_function("aes128_encrypt_block", |b| {
        b.iter(|| std::hint::black_box(aes.encrypt_block(&block)))
    });
    c.bench_function("aes128_key_schedule", |b| {
        b.iter(|| std::hint::black_box(Aes128::new([0x5a; 16])))
    });
}

fn bench_linalg(c: &mut Criterion) {
    let data = gaussian(100, 6, 1);
    let cov = data.covariance().unwrap();
    c.bench_function("covariance_100x6", |b| {
        b.iter(|| std::hint::black_box(data.covariance().unwrap()))
    });
    c.bench_function("symmetric_eigen_6x6", |b| {
        b.iter(|| std::hint::black_box(cov.symmetric_eigen().unwrap()))
    });
    c.bench_function("cholesky_6x6", |b| {
        b.iter(|| std::hint::black_box(cov.cholesky().unwrap()))
    });
}

fn bench_kde(c: &mut Criterion) {
    let data = gaussian(100, 6, 2);
    c.bench_function("kde_fit_100x6", |b| {
        b.iter(|| std::hint::black_box(AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap()))
    });
    let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
    c.bench_function("kde_sample_1000", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| std::hint::black_box(kde.sample_matrix(&mut rng, 1000)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("kde_density_query", |b| {
        b.iter(|| std::hint::black_box(kde.density(&[0.1; 6]).unwrap()))
    });
}

fn bench_kmm(c: &mut Criterion) {
    let train = gaussian(100, 1, 4);
    let mut test = gaussian(120, 1, 5);
    for i in 0..test.nrows() {
        test[(i, 0)] += 1.0;
    }
    c.bench_function("kmm_fit_100_vs_120", |b| {
        b.iter(|| {
            std::hint::black_box(
                KernelMeanMatching::fit(&train, &test, &KmmConfig::default()).unwrap(),
            )
        })
    });
    c.bench_function("kmm_mean_shift_8_iters", |b| {
        b.iter(|| {
            std::hint::black_box(
                KernelMeanMatching::mean_shift_population(&train, &test, &KmmConfig::default(), 8)
                    .unwrap(),
            )
        })
    });
    // The paper-default regime: silicon PCMs 8.4 training sd from the
    // simulated population (seed 42), where most KMM weights sit at zero
    // for thousands of QP iterations, over `kmm_iterations` = 12 rounds.
    let sd = sidefp_stats::descriptive::std_dev(&train.col(0)).unwrap();
    let mut far = gaussian(120, 1, 5);
    for i in 0..far.nrows() {
        far[(i, 0)] += 8.4 * sd;
    }
    c.bench_function("kmm_mean_shift_paper_shift", |b| {
        b.iter(|| {
            std::hint::black_box(
                KernelMeanMatching::mean_shift_population(&train, &far, &KmmConfig::default(), 12)
                    .unwrap(),
            )
        })
    });
}

fn bench_mars(c: &mut Criterion) {
    let x = gaussian(100, 1, 6);
    let y: Vec<f64> = x.col(0).iter().map(|v| (v * 1.5).sin() + v).collect();
    c.bench_function("mars_fit_100x1", |b| {
        b.iter(|| std::hint::black_box(Mars::fit(&x, &y, &MarsConfig::default()).unwrap()))
    });
    let model = Mars::fit(&x, &y, &MarsConfig::default()).unwrap();
    c.bench_function("mars_predict", |b| {
        b.iter(|| std::hint::black_box(sidefp_stats::Regressor::predict(&model, &[0.3]).unwrap()))
    });
}

fn bench_ocsvm(c: &mut Criterion) {
    let small = gaussian(100, 6, 7);
    let large = gaussian(1500, 6, 8);
    let cfg = OneClassSvmConfig {
        nu: 0.05,
        kernel: Kernel::Rbf { gamma: 0.5 },
        ..Default::default()
    };
    c.bench_function("ocsvm_fit_100x6", |b| {
        b.iter(|| std::hint::black_box(OneClassSvm::fit(&small, &cfg).unwrap()))
    });
    c.bench_function("ocsvm_fit_1500x6", |b| {
        b.iter(|| std::hint::black_box(OneClassSvm::fit(&large, &cfg).unwrap()))
    });
    c.bench_function("rbf_median_heuristic_1500x6", |b| {
        b.iter(|| std::hint::black_box(Kernel::rbf_median_heuristic(&large).unwrap()))
    });
    let svm = OneClassSvm::fit(&small, &cfg).unwrap();
    c.bench_function("ocsvm_decision", |b| {
        b.iter(|| std::hint::black_box(svm.decision_function(&[0.2; 6]).unwrap()))
    });
}

fn bench_gram(c: &mut Criterion) {
    // The shared Gram-matrix engine every kernel consumer (KMM, OCSVM,
    // MMD) now runs on: symmetric fill at the B-boundary training size,
    // with a threads=1 contrast to expose the fan-out gain.
    let data = gaussian(600, 6, 30);
    let kernel = Kernel::Rbf { gamma: 0.5 };
    c.bench_function("gram_symmetric_600x6", |b| {
        b.iter(|| std::hint::black_box(GramMatrix::symmetric(kernel, &data)))
    });
    c.bench_function("gram_symmetric_600x6_threads1", |b| {
        b.iter(|| {
            sidefp_parallel::with_threads(1, || {
                std::hint::black_box(GramMatrix::symmetric(kernel, &data))
            })
        })
    });
    let queries = gaussian(600, 6, 31);
    c.bench_function("gram_cross_600x600", |b| {
        b.iter(|| std::hint::black_box(GramMatrix::cross(kernel, &data, &queries).unwrap()))
    });
}

fn bench_parallel_kde(c: &mut Criterion) {
    // Parallel density evaluation and streamed sampling — the S2/S5
    // enhancement hot path.
    let data = gaussian(200, 6, 32);
    let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
    let queries = gaussian(400, 6, 33);
    c.bench_function("kde_density_rows_400", |b| {
        b.iter(|| std::hint::black_box(kde.density_rows(&queries).unwrap()))
    });
    c.bench_function("kde_density_rows_400_threads1", |b| {
        b.iter(|| {
            sidefp_parallel::with_threads(1, || {
                std::hint::black_box(kde.density_rows(&queries).unwrap())
            })
        })
    });
    c.bench_function("kde_sample_streamed_1000", |b| {
        b.iter(|| std::hint::black_box(kde.sample_matrix_streamed(3, 1000)))
    });
}

fn bench_pca(c: &mut Criterion) {
    let data = gaussian(1000, 6, 9);
    c.bench_function("pca_fit_1000x6", |b| {
        b.iter(|| std::hint::black_box(Pca::fit(&data).unwrap()))
    });
    let pca = Pca::fit(&data).unwrap();
    c.bench_function("pca_project_1000_top3", |b| {
        b.iter(|| std::hint::black_box(pca.project(&data, 3).unwrap()))
    });
}

fn bench_inference(c: &mut Criterion) {
    // ROC over 120 scored devices.
    let scores: Vec<(f64, DetectionLabel)> = (0..120)
        .map(|i| {
            (
                (i as f64 * 0.37).sin(),
                if i % 3 == 0 {
                    DetectionLabel::TrojanFree
                } else {
                    DetectionLabel::TrojanInfested
                },
            )
        })
        .collect();
    c.bench_function("roc_curve_120", |b| {
        b.iter(|| std::hint::black_box(RocCurve::from_scores(scores.clone()).unwrap()))
    });

    // Permutation MMD between two 60-point samples.
    let a = gaussian(60, 6, 21);
    let bm = gaussian(60, 6, 22);
    c.bench_function("mmd_permutation_100", |b| {
        b.iter(|| std::hint::black_box(mmd_permutation_test(&a, &bm, None, 100, 1).unwrap()))
    });

    // Bootstrap CI over 120 Bernoulli outcomes.
    let outcomes: Vec<bool> = (0..120).map(|i| i % 7 == 0).collect();
    c.bench_function("bootstrap_ci_2000", |b| {
        b.iter(|| std::hint::black_box(proportion_interval(&outcomes, 0.95, 2000, 1).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_aes, bench_linalg, bench_kde, bench_kmm, bench_mars, bench_ocsvm, bench_gram,
        bench_parallel_kde, bench_pca, bench_inference
}
criterion_main!(benches);
