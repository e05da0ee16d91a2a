//! Data-parallel primitives for the sidefp numeric hot paths.
//!
//! Built on `std::thread::scope` rather than a pooled runtime, so workers
//! borrow the caller's data without `Arc`. Each parallel section spawns
//! and joins fresh threads, and that cost is not noise. One fork-join
//! measured 49–88 µs (median 61 µs) on a 2-core host. One paper-default
//! fit at 2 workers opens 234–242 sections: 202–207 [`map_indexed`]
//! calls, 156 of them over at most 20 items, and 32–35
//! [`for_each_split_mut`] calls. That is roughly 12–15 ms, about 5% of a
//! 280 ms fit. A persistent worker pool with a sequential threshold for
//! small sections is ROADMAP item 4.
//!
//! Three ideas organize the crate:
//!
//! - **Order-preserving fan-out.** [`map_indexed`] splits `0..len` into
//!   contiguous blocks, one per worker, and reassembles results in index
//!   order — callers observe exactly the sequential result layout.
//! - **Disjoint mutable splits.** [`for_each_split_mut`] cuts one buffer
//!   into caller-chosen contiguous parts (via repeated `split_at_mut`) and
//!   lets the workers drain them as a tile queue, which is how GEMM row
//!   stripes and feature-map rows are filled in place without locks.
//! - **Deterministic RNG streams.** [`fork_seed`] derives independent
//!   per-item seeds from a master seed, so stochastic results are a pure
//!   function of the seed — identical at any thread count.
//!
//! Thread count resolution: a scoped override installed by
//! [`with_threads`] wins, then `std::thread::available_parallelism()` —
//! probed once and cached, because on Linux each probe re-reads the
//! cgroup CPU quota files and heap-allocates, which would put `malloc`
//! back on every allocation-free hot path that asks for the thread
//! count. Worker
//! threads run with an override of 1, so nested parallel calls inside a
//! parallel section execute sequentially instead of oversubscribing.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cached `available_parallelism()` result; 0 means "not probed yet".
static DETECTED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hardware parallelism, probed once per process. `available_parallelism`
/// is not a cheap getter on Linux — it re-parses the cgroup quota files
/// and allocates on every call — and the answer cannot change under us.
fn detected_threads() -> usize {
    let cached = DETECTED_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let probed = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    DETECTED_THREADS.store(probed, Ordering::Relaxed);
    probed
}

thread_local! {
    /// Scoped override; 0 means "no override in effect".
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Scoped determinism override; 0 = unset, 1 = strict, 2 = relaxed.
    static SCOPED_DETERMINISM: Cell<u8> = const { Cell::new(0) };
}

/// The worker count parallel primitives will use on this thread right now.
fn current_threads() -> usize {
    let scoped = SCOPED_THREADS.get();
    if scoped != 0 {
        return scoped;
    }
    detected_threads()
}

/// Runs `f` with the thread count pinned to `threads` on this thread
/// (and anything it calls). `0` re-enables auto-detection. The previous
/// setting is restored on exit, including on panic.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.set(self.0);
        }
    }
    let _restore = Restore(SCOPED_THREADS.get());
    SCOPED_THREADS.set(if threads == 0 {
        detected_threads()
    } else {
        threads
    });
    f()
}

/// Whether strict (thread-count-independent) reductions are in effect on
/// this thread right now. Strict is the default: [`reduce_sum`] then uses
/// a fixed partial-sum layout independent of the worker count, so results
/// are bit-identical at any thread count.
pub fn deterministic() -> bool {
    SCOPED_DETERMINISM.get() != 2
}

/// Runs `f` with the determinism policy pinned to `strict` on this thread
/// (and anything it calls); the previous policy is restored on exit,
/// including on panic. Relaxed (`false`) lets the [`reduce_sum`] layout
/// follow the worker count for slightly less bookkeeping.
pub fn with_determinism<T>(strict: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_DETERMINISM.set(self.0);
        }
    }
    let _restore = Restore(SCOPED_DETERMINISM.get());
    SCOPED_DETERMINISM.set(if strict { 1 } else { 2 });
    f()
}

/// Pins a worker closure to sequential execution so parallel calls nested
/// inside a parallel section don't oversubscribe. Workers start with the
/// default (strict) determinism policy, so [`reduce_sum`] checks the
/// policy before fan-out instead of inside workers.
fn serialized<T>(f: impl FnOnce() -> T) -> T {
    SCOPED_THREADS.set(1);
    f()
}

/// Fixed chunk width of strict-mode partial sums: small enough to expose
/// parallelism on modest inputs, large enough that the per-chunk overhead
/// vanishes against any real kernel evaluation.
const STRICT_SUM_CHUNK: usize = 512;

/// Sums `term(i)` over `0..len` with blocked partial sums.
///
/// In strict mode (see [`deterministic`]) partial sums are formed
/// over fixed `STRICT_SUM_CHUNK`-wide (512) chunks and combined in chunk
/// order, so the floating-point result is a pure function of the input —
/// identical at any thread count. In relaxed mode the chunk layout
/// follows the current worker count.
pub fn reduce_sum<F>(len: usize, term: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    if len == 0 {
        return 0.0;
    }
    let chunks = if deterministic() {
        split_even(len, len.div_ceil(STRICT_SUM_CHUNK))
    } else {
        split_even(len, current_threads())
    };
    if chunks.len() == 1 {
        return (0..len).map(term).sum();
    }
    map_indexed(chunks.len(), |c| chunks[c].clone().map(&term).sum::<f64>())
        .into_iter()
        .sum()
}

/// Sequential strict-chunked sum: the allocation-free counterpart of
/// [`reduce_sum`] in strict mode. Partial sums are formed over the same
/// fixed-width chunk layout and combined in chunk order, so
/// the result is bit-identical to a strict-mode [`reduce_sum`] at any
/// thread count — but nothing is spawned and nothing is allocated, which
/// makes it the right reduction inside steady-state scoring loops.
pub fn reduce_sum_seq<F>(len: usize, term: F) -> f64
where
    F: Fn(usize) -> f64,
{
    if len == 0 {
        return 0.0;
    }
    // Same chunk layout as `split_even(len, len.div_ceil(STRICT_SUM_CHUNK))`.
    let parts = len.div_ceil(STRICT_SUM_CHUNK).clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut total = 0.0;
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        let mut chunk = 0.0;
        for i in start..start + size {
            chunk += term(i);
        }
        total += chunk;
        start += size;
    }
    total
}

/// Splits `0..len` into at most `parts` contiguous, near-equal,
/// non-empty ranges covering `0..len` in order.
fn split_even(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Applies `f` to every index in `0..len`, returning results in index
/// order. Work is split into one contiguous block per worker; with one
/// worker (or `len <= 1`) it degenerates to a plain sequential loop with
/// no thread or allocation overhead beyond the output vector.
pub fn map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = current_threads();
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let blocks = split_even(len, threads);
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| {
                let f = &f;
                scope.spawn(move || serialized(|| block.map(f).collect::<Vec<T>>()))
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
    });
    out
}

/// Splits `data` at the caller-chosen ascending `cuts` (offsets into
/// `data`, excluding 0 and `data.len()`) and applies `f(part_index,
/// part_slice)` to each part concurrently.
///
/// The parts form a precomputed tile queue that `min(threads, parts)`
/// workers drain via an atomic claim counter. A worker that finishes a
/// cheap tile immediately claims the next one, so imbalanced tile costs
/// (triangle-shaped Gram fills, edge panels of a blocked GEMM) do not
/// leave workers idle; with one part per worker the queue is a plain
/// fixed split.
///
/// Determinism: which worker computes a part varies run to run, but each
/// part is computed exactly once and written only to its own pre-split
/// slice (its "owner slot"). As long as `f`'s output for a part depends
/// only on the part index and slice — never on claim order or timing —
/// the buffer contents are bit-identical at any thread count, including
/// one: with a single worker the queue degenerates to the plain
/// sequential loop with no atomics, locks, spawns or allocations.
///
/// # Panics
///
/// Panics if `cuts` is not strictly ascending within `0..data.len()`.
pub fn for_each_split_mut<T, F>(data: &mut [T], cuts: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = current_threads();
    if threads <= 1 || cuts.is_empty() {
        for (i, part) in split_at_cuts(data, cuts).enumerate() {
            f(i, part);
        }
        return;
    }
    let nparts = cuts.len() + 1;
    // The Mutex only guards the Option take — one uncontended lock per
    // tile, negligible against any real tile computation.
    let slots = Mutex::new(split_at_cuts(data, cuts).map(Some).collect::<Vec<_>>());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(nparts) {
            let (slots, next, f) = (&slots, &next, &f);
            scope.spawn(move || {
                serialized(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= nparts {
                        break;
                    }
                    let part = slots
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i]
                        .take();
                    if let Some(part) = part {
                        f(i, part);
                    }
                })
            });
        }
    });
}

/// The `cuts.len() + 1` parts of `data` split at the ascending `cuts`.
fn split_at_cuts<'a, T>(
    data: &'a mut [T],
    cuts: &'a [usize],
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    let mut rest = Some(data);
    let mut prev = 0;
    let mut cuts = cuts.iter();
    std::iter::from_fn(move || {
        let tail = rest.take()?;
        let Some(&cut) = cuts.next() else {
            return Some(tail);
        };
        assert!(
            cut > prev && cut < prev + tail.len(),
            "cuts must ascend inside data"
        );
        let (part, tail) = tail.split_at_mut(cut - prev);
        prev = cut;
        rest = Some(tail);
        Some(part)
    })
}

/// Applies `f(row_index, row)` to every `ncols`-wide row of a row-major
/// buffer, fanning contiguous row blocks out across the worker pool — the
/// feature-map fan-out used by the kernel approximation layer's
/// element-wise passes (e.g. the random-Fourier cosine map).
///
/// Each row is visited exactly once and rows are disjoint, so as long as
/// `f`'s output for a row depends only on that row and its index, the
/// result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `ncols > 0` and `data.len()` is not a whole number of rows.
pub fn for_each_row_mut<T, F>(data: &mut [T], ncols: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if ncols == 0 || data.is_empty() {
        return;
    }
    assert_eq!(
        data.len() % ncols,
        0,
        "for_each_row_mut: buffer is not a whole number of rows"
    );
    let nrows = data.len() / ncols;
    let blocks = split_even(nrows, current_threads());
    let cuts: Vec<usize> = blocks.iter().skip(1).map(|r| r.start * ncols).collect();
    for_each_split_mut(data, &cuts, |part, slice| {
        let first_row = blocks[part].start;
        for (local, row) in slice.chunks_exact_mut(ncols).enumerate() {
            f(first_row + local, row);
        }
    });
}

/// Runs two closures, concurrently when more than one worker is
/// available, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(move || serialized(b));
        let ra = serialized(a);
        (ra, hb.join().expect("join worker panicked"))
    })
}

/// Derives the seed for stream number `stream` from `master`.
///
/// SplitMix64-style finalizer over the (master, stream) pair: distinct
/// streams decorrelate even for adjacent indices, and the mapping is a
/// fixed pure function — the foundation of thread-count-independent
/// reproducibility.
pub fn fork_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        ^ stream
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x243f_6a88_85a3_08d3);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_everything_in_order() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_even(len, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, len);
                if len > 0 {
                    assert!(ranges.len() <= parts.min(len));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1, "unbalanced split {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn for_each_row_mut_visits_every_row_once_with_correct_index() {
        for threads in [1usize, 2, 8] {
            with_threads(threads, || {
                let (nrows, ncols) = (13usize, 3usize);
                let mut data = vec![0.0f64; nrows * ncols];
                for_each_row_mut(&mut data, ncols, |i, row| {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v += (i * ncols + j) as f64 + 1.0;
                    }
                });
                let expect: Vec<f64> = (0..nrows * ncols).map(|t| t as f64 + 1.0).collect();
                assert_eq!(data, expect, "threads {threads}");
            });
        }
    }

    #[test]
    fn for_each_row_mut_tolerates_empty_and_degenerate_buffers() {
        let mut empty: Vec<f64> = Vec::new();
        for_each_row_mut(&mut empty, 4, |_, _| panic!("no rows expected"));
        let mut data = vec![1.0f64; 4];
        for_each_row_mut(&mut data, 0, |_, _| panic!("zero-width rows"));
        assert_eq!(data, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn for_each_row_mut_rejects_ragged_buffers() {
        let mut data = vec![0.0f64; 5];
        for_each_row_mut(&mut data, 3, |_, _| {});
    }

    #[test]
    fn reduce_sum_seq_bit_identical_to_strict_reduce_sum() {
        // The allocation-free sequential sum must reproduce the strict-mode
        // chunked reduction exactly, including across chunk boundaries and
        // at any worker count.
        let term = |i: usize| ((i as f64) * 0.731 + 0.21).sin() / (i as f64 + 1.0);
        for len in [0usize, 1, 511, 512, 513, 1024, 1500, 4097] {
            let seq = reduce_sum_seq(len, term);
            for threads in [1, 2, 4] {
                let strict = with_threads(threads, || reduce_sum(len, term));
                assert_eq!(
                    strict.to_bits(),
                    seq.to_bits(),
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn map_indexed_preserves_order_at_any_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || map_indexed(97, |i| i * i));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn for_each_split_mut_writes_disjoint_parts() {
        for threads in [1, 4] {
            let mut data = vec![0usize; 20];
            with_threads(threads, || {
                for_each_split_mut(&mut data, &[3, 9, 15], |part, slice| {
                    for v in slice.iter_mut() {
                        *v = part + 1;
                    }
                });
            });
            let mut expected = vec![1; 3];
            expected.extend(vec![2; 6]);
            expected.extend(vec![3; 6]);
            expected.extend(vec![4; 5]);
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn for_each_split_mut_identical_at_any_thread_count() {
        // The tile queue must produce the identical buffer no matter how
        // many workers drain it.
        let cuts = [3usize, 9, 15, 16];
        let fill = |threads: usize| {
            let mut data = vec![0usize; 20];
            with_threads(threads, || {
                for_each_split_mut(&mut data, &cuts, |part, slice| {
                    for (off, v) in slice.iter_mut().enumerate() {
                        *v = part * 100 + off;
                    }
                });
            });
            data
        };
        let reference = fill(1);
        for threads in [2, 3, 8] {
            assert_eq!(fill(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn for_each_split_mut_visits_every_part_exactly_once() {
        for threads in [1, 4] {
            let counts: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
            let mut data = vec![0u8; 70];
            with_threads(threads, || {
                for_each_split_mut(&mut data, &[10, 20, 30, 40, 50, 60], |part, _| {
                    counts[part].fetch_add(1, Ordering::Relaxed);
                });
            });
            for (part, c) in counts.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "part {part} threads {threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cuts must ascend")]
    fn for_each_split_mut_rejects_bad_cuts() {
        let mut data = vec![0u8; 5];
        with_threads(2, || {
            for_each_split_mut(&mut data, &[3, 2], |_, _| {});
        });
    }

    #[test]
    fn for_each_split_mut_no_cuts_is_single_part() {
        let mut data = vec![0u8; 5];
        for_each_split_mut(&mut data, &[], |part, slice| {
            assert_eq!(part, 0);
            for v in slice.iter_mut() {
                *v = 7;
            }
        });
        assert_eq!(data, vec![7; 5]);
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn workers_run_serialized() {
        with_threads(4, || {
            let nested = map_indexed(4, |_| current_threads());
            assert_eq!(nested, vec![1, 1, 1, 1]);
        });
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2] {
            let (a, b) = with_threads(threads, || join(|| 2 + 2, || "ok"));
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn reduce_sum_strict_is_thread_count_independent() {
        // Terms with wildly different magnitudes make the summation order
        // observable; strict mode must produce bit-identical results.
        let term = |i: usize| ((i * 37 % 101) as f64).exp2() * 1e-10 + i as f64;
        let reference = with_threads(1, || with_determinism(true, || reduce_sum(3000, term)));
        for threads in [2, 3, 8] {
            let got = with_threads(threads, || {
                with_determinism(true, || reduce_sum(3000, term))
            });
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn reduce_sum_relaxed_is_close_to_strict() {
        let term = |i: usize| (i as f64 * 0.001).sin();
        let strict = with_determinism(true, || reduce_sum(5000, term));
        let relaxed = with_threads(4, || with_determinism(false, || reduce_sum(5000, term)));
        assert!((strict - relaxed).abs() < 1e-9);
    }

    #[test]
    fn reduce_sum_empty_and_small() {
        assert_eq!(reduce_sum(0, |_| 1.0), 0.0);
        assert_eq!(reduce_sum(3, |i| i as f64), 3.0);
    }

    #[test]
    fn determinism_scopes_and_restores() {
        let outer = deterministic();
        with_determinism(false, || {
            assert!(!deterministic());
            with_determinism(true, || assert!(deterministic()));
            assert!(!deterministic());
        });
        assert_eq!(deterministic(), outer);
    }

    #[test]
    fn fork_seed_is_deterministic_and_spread() {
        assert_eq!(fork_seed(42, 7), fork_seed(42, 7));
        let seeds: Vec<u64> = (0..100).map(|s| fork_seed(2014, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "stream collision");
        assert_ne!(fork_seed(1, 0), fork_seed(2, 0), "master seed ignored");
    }
}
