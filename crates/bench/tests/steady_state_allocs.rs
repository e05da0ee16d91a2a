//! Steady-state allocation counts of the scoring hot loops.
//!
//! A counting global allocator bumps a process-wide counter on every
//! `alloc`/`realloc`, so each case can assert how many heap blocks a
//! warm loop requested. The allocator lives only in this test binary, so
//! no timed process pays for the counter. The counter also sees worker
//! threads, which the packed-GEMM case needs, so nothing else may run
//! while a case measures: the binary has its own `main` (`harness =
//! false`) and runs the cases one after another on the main thread, with
//! no test-runner thread alive to allocate inside a measured window.
//!
//! ```text
//! cargo test -p sidefp-bench --test steady_state_allocs
//! cargo test -p sidefp-bench --test steady_state_allocs -- packed_gemm   # one case
//! ```
//!
//! `--list` lists the five cases. Name filters, `--exact`, `--skip`,
//! `--ignored` and `--include-ignored` select cases as they do for a
//! libtest binary (no case is ignored); other libtest flags are accepted
//! and ignored.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

fn kde_density_rows_request_no_heap_blocks() {
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

fn ocsvm_decision_rows_request_no_heap_blocks() {
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
fn score_into_requests_no_heap_blocks() {
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
fn kde_streamed_sampling_requests_no_heap_blocks_per_row() {
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

/// Runs `warm` once on every thread that can take part in a parallel
/// section: the caller and each worker-pool helper. A helper joins a
/// section only if the OS runs it in time, so an ordinary warm pass can
/// leave a helper's thread-local state cold on a busy host. Here each of
/// the section's parts waits (up to 10 s) until all have started, which
/// puts every part on a thread of its own; `warm` itself then runs
/// sequentially, as every call nested in a parallel section does.
fn on_every_worker(warm: impl Fn() + Sync) {
    let workers = sidefp_parallel::hardware_threads();
    let started = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let cuts: Vec<usize> = (1..workers).collect();
    sidefp_parallel::with_threads(workers, || {
        sidefp_parallel::for_each_split_mut(&mut vec![0u8; workers], &cuts, |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < workers as u64 && Instant::now() < deadline {
                std::hint::spin_loop();
            }
            warm();
        });
    });
}

/// The packed-GEMM panel buffers live in a thread-local workspace of
/// every thread that computes a stripe: the caller and the worker pool's
/// helpers, which persist from one parallel section to the next. Once
/// each of them has seen a shape, repeated products into a caller-owned
/// output at the machine's worker count request no heap blocks.
fn packed_gemm_requests_no_heap_blocks() {
    let a = Matrix::from_fn(96, 80, |i, j| (i as f64 - j as f64) * 0.01);
    let b = Matrix::from_fn(80, 72, |i, j| (i + 2 * j) as f64 * 0.005);
    on_every_worker(|| {
        sidefp_linalg::gemm::gemm_nn(&a, &b, &mut Matrix::zeros(96, 72));
    });
    let mut out = Matrix::zeros(96, 72);
    let blocks = steady_state_blocks(|| {
        for _ in 0..8 {
            sidefp_linalg::gemm::gemm_nn(&a, &b, &mut out);
        }
    });
    assert_eq!(blocks, 0, "steady-state packed GEMM heap blocks");
}

/// One case: its name and its body.
struct Case {
    name: &'static str,
    run: fn(),
}

const CASES: [Case; 5] = [
    Case {
        name: "kde_density_rows_request_no_heap_blocks",
        run: kde_density_rows_request_no_heap_blocks,
    },
    Case {
        name: "ocsvm_decision_rows_request_no_heap_blocks",
        run: ocsvm_decision_rows_request_no_heap_blocks,
    },
    Case {
        name: "score_into_requests_no_heap_blocks",
        run: score_into_requests_no_heap_blocks,
    },
    Case {
        name: "kde_streamed_sampling_requests_no_heap_blocks_per_row",
        run: kde_streamed_sampling_requests_no_heap_blocks_per_row,
    },
    Case {
        name: "packed_gemm_requests_no_heap_blocks",
        run: packed_gemm_requests_no_heap_blocks,
    },
];

/// The libtest command line, as far as this binary needs it.
#[derive(Default)]
struct Options {
    ignored: bool,
    include_ignored: bool,
    list: bool,
    exact: bool,
    filters: Vec<String>,
    skip: Vec<String>,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Options {
        // libtest flags whose value may follow as a separate argument.
        const VALUED: [&str; 6] = [
            "--test-threads",
            "--color",
            "--format",
            "--logfile",
            "--shuffle-seed",
            "-Z",
        ];
        let mut o = Options::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--ignored" => o.ignored = true,
                "--include-ignored" => o.include_ignored = true,
                "--list" => o.list = true,
                "--exact" => o.exact = true,
                "--skip" => o.skip.extend(args.next()),
                flag if VALUED.contains(&flag) => {
                    args.next();
                }
                flag if flag.starts_with('-') => {}
                _ => o.filters.push(arg),
            }
        }
        o
    }

    fn matches(&self, pattern: &str, name: &str) -> bool {
        if self.exact {
            name == pattern
        } else {
            name.contains(pattern)
        }
    }

    fn selects(&self, name: &str) -> bool {
        (self.filters.is_empty() || self.filters.iter().any(|f| self.matches(f, name)))
            && !self.skip.iter().any(|s| self.matches(s, name))
    }
}

fn main() -> ExitCode {
    let o = Options::parse(std::env::args().skip(1));
    // `--ignored` alone keeps only the ignored cases, as libtest does, and
    // no case is ignored.
    let only_ignored = o.ignored && !o.include_ignored;
    let selected: Vec<&Case> = CASES
        .iter()
        .filter(|c| o.selects(c.name) && !only_ignored)
        .collect();
    let filtered_out = CASES.len() - selected.len();
    if o.list {
        for case in &selected {
            println!("{}: test", case.name);
        }
        return ExitCode::SUCCESS;
    }
    let plural = if selected.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", selected.len());
    let (mut passed, mut failed) = (0, Vec::new());
    for case in selected {
        if panic::catch_unwind(AssertUnwindSafe(case.run)).is_ok() {
            println!("test {} ... ok", case.name);
            passed += 1;
        } else {
            println!("test {} ... FAILED", case.name);
            failed.push(case.name);
        }
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    let verdict = if failed.is_empty() { "ok" } else { "FAILED" };
    println!(
        "\ntest result: {verdict}. {passed} passed; {} failed; 0 ignored; \
         0 measured; {filtered_out} filtered out\n",
        failed.len()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(101)
    }
}
