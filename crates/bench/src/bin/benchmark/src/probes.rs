//! Kernel-layer probes for the traced pass: the packed GEMM at the
//! workload's own shapes, the vectorized `exp`, and the fork/join cost of
//! an empty parallel section. Inputs are synthetic, drawn from the run's
//! seed.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_linalg::gemm::{gemm_nn, rbf_expansion_rows, self_dot_fold, syrk_fused, Epilogue};
use sidefp_linalg::{vecops, Matrix};
use sidefp_parallel::{map_indexed, with_threads};

use crate::stats::median;
use crate::trace::Series;
use crate::workers;

/// Square GEMM edge: the in-run ceiling the pipeline's shapes compare to.
const SQUARE: usize = 512;
/// Rows of a B2/B5 training set (the boundary's `train_cap`).
const GRAM_ROWS: usize = 1500;
/// Devices per scoring batch.
const SCORE_ROWS: usize = 25_000;
/// Elements per `exp` pass.
const EXP_LEN: usize = 1 << 20;
/// RBF width of the probes (the paper's enhanced-boundary γ).
const GAMMA: f64 = 0.5;

fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).max(1e-12)
}

/// Runs every probe at `threads` workers. `width` is the workload's
/// fingerprint width and `support_vectors` its B5 support-vector count.
pub(crate) fn run(
    series: &mut Series,
    width: usize,
    support_vectors: usize,
    seed: u64,
    threads: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    with_threads(threads, || {
        let a = random(&mut rng, SQUARE, SQUARE);
        let b = random(&mut rng, SQUARE, SQUARE);
        let mut out = Matrix::zeros(SQUARE, SQUARE);
        let s = time_s(3, || gemm_nn(black_box(&a), black_box(&b), &mut out));
        series.push(
            "gemm.square_gflops",
            2.0 * (SQUARE as f64).powi(3) / s / 1e9,
        );

        let x = random(&mut rng, GRAM_ROWS, width);
        let norms: Vec<f64> = x.rows_iter().map(self_dot_fold).collect();
        let epilogue = Epilogue::Rbf {
            gamma: GAMMA,
            a_norms: &norms,
            b_norms: &norms,
        };
        let mut gram = Matrix::zeros(GRAM_ROWS, GRAM_ROWS);
        let s = time_s(5, || {
            gram.as_mut_slice().fill(0.0);
            syrk_fused(black_box(&x), &epilogue, &mut gram);
        });
        // Upper triangle: n(n+1)/2 dot products of 2·width flops each.
        let flops = (GRAM_ROWS * (GRAM_ROWS + 1) * width) as f64;
        series.push("gemm.gram_gflops", flops / s / 1e9);

        let queries = random(&mut rng, SCORE_ROWS, width);
        let sv = random(&mut rng, support_vectors.max(1), width);
        let coeffs: Vec<f64> = (0..sv.nrows())
            .map(|_| rng.random_range(0.0..1.0))
            .collect();
        let mut scores = vec![0.0; SCORE_ROWS];
        let s = time_s(3, || {
            rbf_expansion_rows(black_box(&queries), &sv, GAMMA, &coeffs, &mut scores)
        });
        let flops = 2.0 * (SCORE_ROWS * sv.nrows() * width) as f64;
        series.push("gemm.score_gflops", flops / s / 1e9);
    });

    let source: Vec<f64> = (0..EXP_LEN).map(|_| rng.random_range(-30.0..0.0)).collect();
    let mut buf = source.clone();
    let exp_s: Vec<f64> = (0..5)
        .map(|_| {
            buf.copy_from_slice(&source);
            let start = Instant::now();
            vecops::exp_mut(black_box(&mut buf));
            start.elapsed().as_secs_f64()
        })
        .collect();
    series.push("vecops.exp_ns", median(&exp_s) * 1e9 / EXP_LEN as f64);

    let section_us = |threads: usize| {
        with_threads(threads, || {
            let samples: Vec<f64> = (0..400)
                .map(|_| {
                    let start = Instant::now();
                    black_box(map_indexed(2, black_box));
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        })
    };
    series.push(
        "parallel.fork_join_us",
        section_us(workers()) - section_us(1),
    );
}
