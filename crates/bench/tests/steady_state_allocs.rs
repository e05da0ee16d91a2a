//! Steady-state allocation counts of the scoring hot loops.
//!
//! A counting global allocator bumps a process-wide counter on every
//! `alloc`/`realloc`, so each test can assert how many heap blocks a
//! warm loop requested. The allocator lives only in this test binary, so
//! no timed process pays for the counter. The counter also sees worker
//! threads, so the tests hold one lock from set-up to assertion: it sees
//! one loop at a time.
//!
//! ```text
//! cargo test -p sidefp-bench --test steady_state_allocs                # KDE, OCSVM, score_into, sampler
//! cargo test -p sidefp-bench --test steady_state_allocs -- --ignored   # packed GEMM
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sidefp_core::{BatchScorer, ExperimentConfig, FittedModel};
use sidefp_linalg::{Matrix, Workspace};
use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
use sidefp_stats::{Kernel, OneClassSvm, OneClassSvmConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter is a statistic that publishes
// no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the counter for one test; a test that failed while holding it
/// leaves nothing behind that the next one could trip on.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap blocks requested by the second run of `pass`. The first run is
/// not counted: it warms every workspace pool the loop touches.
fn steady_state_blocks(mut pass: impl FnMut()) -> u64 {
    pass();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pass();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// 200 training rows and 64 query rows in six columns.
fn data_and_queries() -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(7);
    let data = Matrix::from_fn(200, 6, |_, _| rng.random_range(-1.0..1.0));
    let queries = Matrix::from_fn(64, 6, |_, _| rng.random_range(-1.0..1.0));
    (data, queries)
}

#[test]
fn kde_density_rows_request_no_heap_blocks() {
    let _serial = serial();
    let (data, queries) = data_and_queries();
    let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
    let mut ws = Workspace::new();
    let mut out = vec![0.0; queries.nrows()];
    let blocks = steady_state_blocks(|| {
        for _ in 0..8 {
            kde.density_rows_into(&queries, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(blocks, 0, "steady-state kde.density_rows heap blocks");
}

#[test]
fn ocsvm_decision_rows_request_no_heap_blocks() {
    let _serial = serial();
    let (data, queries) = data_and_queries();
    let config = OneClassSvmConfig {
        nu: 0.1,
        kernel: Kernel::Rbf { gamma: 0.5 },
        ..Default::default()
    };
    let svm = OneClassSvm::fit(&data, &config).unwrap();
    let mut out = vec![0.0; queries.nrows()];
    let blocks = steady_state_blocks(|| {
        for _ in 0..8 {
            svm.decision_rows_into(&queries, &mut out).unwrap();
        }
    });
    assert_eq!(blocks, 0, "steady-state ocsvm.decision_rows heap blocks");
}

/// The artifact-driven per-device scoring loop: fit once, then score 64
/// devices one `score_into` call at a time.
#[test]
fn score_into_requests_no_heap_blocks() {
    let _serial = serial();
    let model = FittedModel::fit(&sidefp_bench::smoke_sized(ExperimentConfig::default())).unwrap();
    let mut scorer = BatchScorer::new(&model);
    let (fps, _) = model.synthesize_batch(1, 64);
    let mut decisions = vec![0.0; scorer.boundaries().len()];
    let blocks = steady_state_blocks(|| {
        for i in 0..fps.nrows() {
            scorer.score_into(fps.row(i), &mut decisions).unwrap();
        }
    });
    assert_eq!(blocks, 0, "steady-state score_into heap blocks");
}

/// KDE tail enhancement draws 10⁵ rows straight into the output matrix:
/// at one worker the heap blocks of one `sample_matrix_streamed` call do
/// not grow with the row count.
#[test]
fn kde_streamed_sampling_requests_no_heap_blocks_per_row() {
    let _serial = serial();
    let (data, _) = data_and_queries();
    let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
    let blocks = |rows: usize| {
        sidefp_parallel::with_threads(1, || {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let samples = kde.sample_matrix_streamed(5, rows);
            let requested = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(samples.nrows(), rows);
            requested
        })
    };
    assert_eq!(
        blocks(1_000),
        blocks(100_000),
        "kde.sample_matrix_streamed heap blocks at 1,000 vs 100,000 rows"
    );
}

/// The packed-GEMM panel buffers live in a thread-local workspace: once a
/// shape has been through it, repeated products into a caller-owned
/// output should request no heap blocks.
#[test]
#[ignore = "ROADMAP item 4: over 100 blocks at 2 workers; scoped threads start with cold GEMM workspaces"]
fn packed_gemm_requests_no_heap_blocks() {
    let _serial = serial();
    let a = Matrix::from_fn(96, 80, |i, j| (i as f64 - j as f64) * 0.01);
    let b = Matrix::from_fn(80, 72, |i, j| (i + 2 * j) as f64 * 0.005);
    let mut out = Matrix::zeros(96, 72);
    let blocks = steady_state_blocks(|| {
        for _ in 0..8 {
            sidefp_linalg::gemm::gemm_nn(&a, &b, &mut out);
        }
    });
    assert_eq!(blocks, 0, "steady-state packed GEMM heap blocks");
}
