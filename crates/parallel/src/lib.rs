//! Data-parallel primitives for the sidefp numeric hot paths.
//!
//! Every parallel section runs on one process-wide pool: up to N − 1
//! parked helper threads, N being the cached hardware probe
//! [`hardware_threads`], plus the calling thread, which always takes
//! part. A section lives on the caller's stack. The caller posts it, idle
//! helpers join it, and every participant drains its parts through one
//! claim counter. Helpers only ever *join*: when another caller's section
//! holds the pool, or no helper is free, the caller drains every part
//! alone, so concurrent top-level callers never wait on each other. A
//! section spawns no thread and allocates nothing, and each helper keeps
//! its thread-local state (the GEMM panel workspace) warm from one
//! section to the next. An empty section costs under 1 µs on a 2-core
//! host, where spawning fresh scoped threads per section cost 60–95 µs,
//! across the ~240 sections of one paper-default fit.
//!
//! Three ideas organize the crate:
//!
//! - **Order-preserving fan-out.** [`map_indexed`] splits `0..len` into
//!   contiguous blocks, one per worker, and writes every result to its
//!   index — callers observe exactly the sequential result layout.
//! - **Disjoint mutable splits.** [`for_each_split_mut`] cuts one buffer
//!   into caller-chosen contiguous parts and lets the participants drain
//!   them as a tile queue, which is how GEMM row stripes are filled in
//!   place without locks; [`for_each_row_mut`] does the same for blocks
//!   of rows.
//! - **Deterministic RNG streams.** [`fork_seed`] derives independent
//!   per-item seeds from a master seed, so stochastic results are a pure
//!   function of the seed — identical at any thread count.
//!
//! Thread count resolution: a scoped override installed by
//! [`with_threads`] wins, then [`hardware_threads`]. The count sets how
//! many parts a section is cut into, even beyond the core count; the
//! pool only decides who drains them. Participants run their share with
//! an override of 1, so nested parallel calls inside a parallel section
//! execute sequentially instead of oversubscribing.

use std::any::Any;
use std::cell::Cell;
use std::hint;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// Cached `available_parallelism()` result; 0 means "not probed yet".
static DETECTED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hardware parallelism, probed once per process. `available_parallelism`
/// is not a cheap getter on Linux — it re-parses the cgroup quota files
/// and allocates on every call — and the answer cannot change under us.
/// The pool is sized from this number, and callers that clamp a worker
/// request to the machine should clamp to it too.
pub fn hardware_threads() -> usize {
    let cached = DETECTED_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let probed = thread::available_parallelism()
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
    hardware_threads()
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
        hardware_threads()
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

/// Runs one participant's share of a section the same way on the caller
/// and on a helper: nested parallel calls run sequentially, and under the
/// default (strict) determinism policy whatever thread runs the part, so
/// [`reduce_sum`] checks the policy before fan-out instead of inside
/// parts. The caller's settings are restored afterwards.
fn as_participant(f: impl FnOnce()) {
    with_threads(1, || with_determinism(true, f))
}

/// Busy-wait rounds before a waiting thread parks: a helper waiting for
/// the next section, or a caller waiting for its helpers to leave. On a
/// 2-core VM host a parked thread took 10 µs to over 1 ms to wake, longer
/// than most sections run; 2¹⁵ rounds (about 0.5 ms there) bridge the
/// gaps between the back-to-back sections of a fit, and an empty section
/// then costs under 1 µs (2¹² rounds made a paper-default fit 14%
/// slower). It is a constant rather than a setting because the second
/// core is shared: a longer spin only takes it from whoever else needs it.
const SPIN_LIMIT: u32 = 1 << 15;

/// Spins until `done()` holds, for at most [`SPIN_LIMIT`] rounds, and
/// returns whether it does. Every 256th round yields the CPU instead: the
/// OS sometimes wakes a helper onto the caller's own core, and a pure
/// spin there held the other thread off for the whole spin (a two-part
/// section took ~1 ms instead of 0.3 ms on the 2-core host).
fn spin_until(done: impl Fn() -> bool) -> bool {
    for round in 1..=SPIN_LIMIT {
        if done() {
            return true;
        }
        if round % 256 == 0 {
            thread::yield_now();
        } else {
            hint::spin_loop();
        }
    }
    done()
}

/// One parallel section: `nparts` calls of `part`; the caller runs part 0
/// and every participant claims the rest one index at a time through
/// `next`. It lives on the posting caller's stack.
struct Section<'a> {
    part: &'a (dyn Fn(usize) + Sync),
    nparts: usize,
    next: AtomicUsize,
    /// Helpers that joined and have not left yet. A helper joins under the
    /// pool lock while the section is posted, and the caller returns only
    /// after retracting it under that lock and seeing this reach 0.
    joined: AtomicUsize,
    /// The posting thread, unparked by the last helper to leave.
    caller: Thread,
    /// The first panic payload of any participant, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Section<'_> {
    /// Runs part 0 if this participant is the caller, then claims and runs
    /// parts until none is left. A panicking part stops this participant
    /// only: the payload is kept for the caller and the other participants
    /// drain the rest.
    fn drain(&self, caller: bool) {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            as_participant(|| {
                if caller {
                    (self.part)(0);
                }
                loop {
                    let i = self.next.fetch_add(1, Ordering::Relaxed);
                    if i >= self.nparts {
                        break;
                    }
                    (self.part)(i);
                }
            })
        }));
        if let Err(payload) = outcome {
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    }
}

/// A posted section's address, its lifetime erased so the pool can hold it.
struct Posted(NonNull<Section<'static>>);

// SAFETY: the pointer is only dereferenced by helpers that joined the
// section under the pool lock while it was posted, and its caller keeps it
// alive until every such helper has left (see `Section::joined`). The
// section's fields are all `Sync` — `part` is `dyn Fn + Sync`, the rest
// are atomics, a `Thread` and a `Mutex` — so sharing it is sound.
unsafe impl Send for Posted {}

/// The process-wide helper pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Parked helpers wait here for a section.
    wake: Condvar,
    /// Helper seats left in the posted section. Written only under
    /// `state`'s lock; spinning helpers read it without the lock as a hint.
    seats: AtomicUsize,
}

struct PoolState {
    posted: Option<Posted>,
    /// Helper threads ever spawned; they never exit.
    spawned: usize,
    /// Helpers waiting on `Pool::wake`.
    parked: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        posted: None,
        spawned: 0,
        parked: 0,
    }),
    wake: Condvar::new(),
    seats: AtomicUsize::new(0),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // No code that can panic runs under this lock between two updates
        // of the state, so a poisoned guard still holds a valid state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts `section` for up to `seats` helpers, first spawning helpers up
    /// to `hardware_threads() - 1` if fewer exist. Returns `false`, having
    /// posted nothing, when another caller's section holds the pool or no
    /// helper exists; the caller then drains the section alone.
    fn post(&self, section: &Section<'_>, seats: usize) -> bool {
        let mut state = self.lock();
        if state.posted.is_some() {
            return false;
        }
        while state.spawned < seats.min(hardware_threads() - 1) {
            // Helpers are detached on purpose: they serve until the process
            // exits, and `Section::drain` catches every panic of a part.
            let started = Arc::new(Barrier::new(2));
            let helper_started = Arc::clone(&started);
            let spawned = thread::Builder::new()
                .name("sidefp-pool".into())
                .spawn(move || {
                    helper_started.wait();
                    POOL.serve()
                });
            if spawned.is_err() {
                break;
            }
            // The helper's start-up (and its heap blocks) is over before
            // the first section it serves, however late the OS runs it.
            started.wait();
            state.spawned += 1;
        }
        let seats = seats.min(state.spawned);
        if seats == 0 {
            return false;
        }
        state.posted = Some(Posted(NonNull::from(section).cast()));
        self.seats.store(seats, Ordering::Relaxed);
        for _ in 0..seats.min(state.parked) {
            self.wake.notify_one();
        }
        true
    }

    /// Withdraws the section this caller posted: no helper joins it after
    /// this returns.
    fn retract(&self) {
        let mut state = self.lock();
        state.posted = None;
        self.seats.store(0, Ordering::Relaxed);
    }

    /// Waits for a posted section with a free seat and joins it. Spins
    /// for [`SPIN_LIMIT`] rounds, then parks until a section is posted; a
    /// helper that wakes too late for that section spins again, because
    /// the next one is likely close behind.
    fn join(&self) -> NonNull<Section<'static>> {
        loop {
            spin_until(|| self.seats.load(Ordering::Relaxed) > 0);
            let mut state = self.lock();
            if self.seats.load(Ordering::Relaxed) == 0 {
                state.parked += 1;
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
            let seats = self.seats.load(Ordering::Relaxed);
            if let Some(posted) = state.posted.as_ref().filter(|_| seats > 0) {
                self.seats.store(seats - 1, Ordering::Relaxed);
                // SAFETY: the section is posted and the lock is held, so
                // its caller has not retracted it and is still waiting.
                unsafe { posted.0.as_ref() }
                    .joined
                    .fetch_add(1, Ordering::Relaxed);
                return posted.0;
            }
        }
    }

    /// A helper's life: join a section, drain it, leave, repeat.
    fn serve(&self) {
        loop {
            let posted = self.join();
            // SAFETY: `join` counted this helper in `joined` while the
            // section was posted, and its caller neither returns nor
            // releases what `part` borrows until `joined` is back to 0,
            // which happens only at the `fetch_sub` below.
            let section = unsafe { posted.as_ref() };
            section.drain(false);
            let caller = section.caller.clone();
            // Release pairs with the caller's Acquire load of `joined`, so
            // everything this helper wrote is visible once it reads 0.
            // `section` is not touched after this: the caller may return.
            if section.joined.fetch_sub(1, Ordering::Release) == 1 {
                caller.unpark();
            }
        }
    }
}

/// Runs `part(i)` for every `i` in `0..nparts`, each exactly once, on the
/// calling thread and whichever pool helpers join. With one thread, or one
/// part, it is the plain sequential loop: no atomics, locks or wake-ups.
/// A panic in any part reaches the caller after every participant has
/// left; the pool stays usable.
fn run_parts(nparts: usize, part: &(dyn Fn(usize) + Sync)) {
    let threads = current_threads();
    if threads <= 1 || nparts <= 1 {
        for i in 0..nparts {
            part(i);
        }
        return;
    }
    let section = Section {
        part,
        nparts,
        // Part 0, the first and longest block, is always the caller's: which
        // thread computes it never varies, so a helper's thread-local
        // buffers (the GEMM panel workspace) are sized by the later parts
        // alone and stop growing once warm.
        next: AtomicUsize::new(1),
        joined: AtomicUsize::new(0),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    let posted = POOL.post(&section, threads.min(nparts) - 1);
    section.drain(true);
    if posted {
        POOL.retract();
        let left = || section.joined.load(Ordering::Acquire) == 0;
        if !spin_until(left) {
            while !left() {
                thread::park();
            }
        }
    }
    let panic = section.panic.into_inner();
    if let Some(payload) = panic.unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
}

/// A mutable slice whose disjoint sub-slices the participants of one
/// section take by part index.
struct SharedSlice<'a, T> {
    ptr: NonNull<T>,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: a `SharedSlice` only hands out `&mut` sub-slices, which move
// access to `T` values to other threads, and `T: Send` allows that.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    fn new(data: &'a mut [T]) -> Self {
        SharedSlice {
            len: data.len(),
            ptr: NonNull::from(data).cast(),
            _borrow: PhantomData,
        }
    }

    /// The sub-slice `range`.
    ///
    /// # Safety
    ///
    /// No two calls whose results are alive at the same time may have
    /// overlapping ranges.
    unsafe fn get(&self, range: Range<usize>) -> &'a mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "part outside the shared slice"
        );
        // SAFETY: the range lies inside the borrowed slice (checked above),
        // and the caller guarantees no other live sub-slice overlaps it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr().add(range.start), range.len()) }
    }
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
        len.div_ceil(STRICT_SUM_CHUNK)
    } else {
        current_threads().min(len)
    };
    if chunks == 1 {
        return (0..len).map(term).sum();
    }
    map_indexed(chunks, |c| {
        even_block(len, chunks, c).map(&term).sum::<f64>()
    })
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
    let chunks = len.div_ceil(STRICT_SUM_CHUNK);
    let mut total = 0.0;
    for c in 0..chunks {
        let mut chunk = 0.0;
        for i in even_block(len, chunks, c) {
            chunk += term(i);
        }
        total += chunk;
    }
    total
}

/// Block `part` of `0..len` cut into `parts` contiguous, near-equal
/// ranges (`1 <= parts <= len`); the first `len % parts` blocks are one
/// longer.
fn even_block(len: usize, parts: usize, part: usize) -> Range<usize> {
    let (base, extra) = (len / parts, len % parts);
    let start = part * base + part.min(extra);
    start..start + base + usize::from(part < extra)
}

/// Applies `f` to every index in `0..len`, returning results in index
/// order. Work is split into one contiguous block per worker, and each
/// block writes its results straight into its own span of the output;
/// with one worker (or `len <= 1`) it degenerates to a plain sequential
/// loop with no overhead beyond the output vector.
pub fn map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = current_threads();
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let blocks = threads.min(len);
    let mut out = Vec::with_capacity(len);
    let slots = SharedSlice::new(&mut out.spare_capacity_mut()[..len]);
    run_parts(blocks, &|b| {
        let block = even_block(len, blocks, b);
        // SAFETY: blocks are disjoint and each is run exactly once.
        let dst = unsafe { slots.get(block.clone()) };
        for (slot, i) in dst.iter_mut().zip(block) {
            slot.write(f(i));
        }
    });
    // SAFETY: `run_parts` returned, so every block ran to completion and
    // initialized its span; the blocks cover `0..len`. (On a panic the
    // written results leak instead.)
    unsafe { out.set_len(len) };
    out
}

/// Splits `data` at the caller-chosen ascending `cuts` (offsets into
/// `data`, excluding 0 and `data.len()`) and applies `f(part_index,
/// part_slice)` to each part concurrently.
///
/// The parts form a tile queue that the participants drain via an atomic
/// claim counter. A participant that finishes a cheap tile immediately
/// claims the next one, so imbalanced tile costs (triangle-shaped Gram
/// fills, edge panels of a blocked GEMM) do not leave workers idle; with
/// one part per worker the queue is a plain fixed split.
///
/// Determinism: which thread computes a part varies run to run, but each
/// part is computed exactly once and written only to its own pre-split
/// slice (its "owner slot"). As long as `f`'s output for a part depends
/// only on the part index and slice — never on claim order or timing —
/// the buffer contents are bit-identical at any thread count, including
/// one: with a single worker the queue degenerates to the plain
/// sequential loop.
///
/// # Panics
///
/// Panics if `cuts` is not strictly ascending within `0..data.len()`.
pub fn for_each_split_mut<T, F>(data: &mut [T], cuts: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let mut prev = 0;
    for &cut in cuts {
        assert!(cut > prev && cut < len, "cuts must ascend inside data");
        prev = cut;
    }
    let parts = SharedSlice::new(data);
    run_parts(cuts.len() + 1, &|i| {
        let start = if i == 0 { 0 } else { cuts[i - 1] };
        let end = cuts.get(i).copied().unwrap_or(len);
        // SAFETY: the cuts ascend strictly inside `data` (checked above),
        // so the parts are disjoint, and each is run exactly once.
        f(i, unsafe { parts.get(start..end) });
    });
}

/// Applies `f(row_index, row)` to every `ncols`-wide row of a row-major
/// buffer, fanning contiguous row blocks, one per worker, out across the
/// pool — the fan-out of the RBF map in
/// `GramMatrix::from_squared_distances` and of the KDE sampler
/// (`AdaptiveKde::sample_matrix_streamed`), which writes each sampled row
/// in place.
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
    let blocks = current_threads().min(nrows);
    let rows = SharedSlice::new(data);
    run_parts(blocks, &|b| {
        let block = even_block(nrows, blocks, b);
        // SAFETY: row blocks are disjoint and each is run exactly once.
        let slice = unsafe { rows.get(block.start * ncols..block.end * ncols) };
        for (local, row) in slice.chunks_exact_mut(ncols).enumerate() {
            f(block.start + local, row);
        }
    });
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
    fn even_block_covers_everything_in_order() {
        for len in [1usize, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let parts = parts.min(len);
                let mut expect = 0;
                let mut sizes = Vec::new();
                for p in 0..parts {
                    let r = even_block(len, parts, p);
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    sizes.push(r.len());
                    expect = r.end;
                }
                assert_eq!(expect, len);
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced split {sizes:?}");
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
    fn nested_sections_run_sequentially_and_restore_the_callers_settings() {
        with_threads(3, || {
            with_determinism(false, || {
                let nested = map_indexed(6, |_| (current_threads(), deterministic()));
                assert_eq!(nested, vec![(1, true); 6]);
                let mut seen = vec![(0, false); 4];
                for_each_split_mut(&mut seen, &[1, 2, 3], |_, slot| {
                    slot[0] = (current_threads(), deterministic());
                });
                assert_eq!(seen, vec![(1, true); 4]);
                assert!(!deterministic());
            });
            assert_eq!(current_threads(), 3);
        });
    }

    /// `rounds` rounds of one `map_indexed` and one `for_each_split_mut`
    /// section at 2 workers, each checked against its sequential result.
    fn hammer(rounds: usize) {
        let cuts = [5usize, 11, 40, 41, 90];
        let fill = |p: usize, s: &mut [usize]| s.fill(p * 3 + 1);
        let square = |i: usize| i as u64 * i as u64 + 7;
        let mut expect_split = vec![0usize; 120];
        with_threads(1, || for_each_split_mut(&mut expect_split, &cuts, fill));
        let expect_map: Vec<u64> = (0..97).map(square).collect();
        with_threads(2, || {
            for _ in 0..rounds {
                assert_eq!(map_indexed(97, square), expect_map);
                let mut data = vec![0usize; 120];
                for_each_split_mut(&mut data, &cuts, fill);
                assert_eq!(data, expect_split);
            }
        });
    }

    #[test]
    fn concurrent_callers_each_get_their_sequential_result() {
        // The first section holds a part open until the other caller has
        // run sections of its own, so that caller meets a busy pool; then
        // both callers run sections side by side.
        let started = Arc::new(Barrier::new(2));
        let other_done = Arc::new(Barrier::new(2));
        let other = {
            let (started, other_done) = (Arc::clone(&started), Arc::clone(&other_done));
            thread::spawn(move || {
                started.wait();
                hammer(50);
                other_done.wait();
                hammer(500);
            })
        };
        let got = with_threads(2, || {
            map_indexed(4, |i| {
                if i == 0 {
                    started.wait();
                    other_done.wait();
                }
                i
            })
        });
        assert_eq!(got, vec![0, 1, 2, 3]);
        hammer(500);
        other.join().expect("second caller panicked");
    }

    #[test]
    fn a_panicking_part_reaches_the_caller_and_the_pool_stays_usable() {
        with_threads(2, || {
            for bad in [0usize, 5, 7] {
                let caught = panic::catch_unwind(|| {
                    map_indexed(8, |i| {
                        if i == bad {
                            panic!("part {bad} fails");
                        }
                        i
                    })
                });
                let payload = caught.expect_err("the part's panic must reach the caller");
                let message = payload.downcast_ref::<String>().expect("formatted message");
                assert_eq!(message, &format!("part {bad} fails"));
                assert_eq!(
                    map_indexed(8, |i| i * 2),
                    (0..8).map(|i| i * 2).collect::<Vec<_>>()
                );
            }
            let caught = panic::catch_unwind(|| {
                let mut data = vec![0u8; 8];
                for_each_split_mut(&mut data, &[2, 4, 6], |p, _| assert_ne!(p, 3));
            });
            assert!(caught.is_err());
        });
    }

    /// Number of helper threads the pool has spawned so far.
    fn spawned_helpers() -> usize {
        POOL.lock().spawned
    }

    #[test]
    fn the_pool_never_spawns_more_than_the_hardware_helpers() {
        with_threads(8, || {
            for n in 0..1_000 {
                let got = map_indexed(16, |i| i + n);
                assert_eq!(got[15], 15 + n);
            }
        });
        assert!(spawned_helpers() < hardware_threads());
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
