//! The system allocator behind a live-byte counter that is off unless
//! [`start_counting`] switches it on, so a run can report its peak heap.
//! Unlike the resident set, the peak of live bytes does not depend on how
//! the C allocator spreads freed memory over per-thread arenas, which made
//! resident-set peaks of identical runs differ by 9%.
//!
//! Only the short heap-measuring child run switches counting on. The timed
//! runs leave it off, so each allocation pays one relaxed load of a flag
//! that nothing writes while they run, instead of two read-modify-writes
//! on counters shared by every worker.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

struct Counting;

// Statistics only: the flag and counters publish no other data, so relaxed
// ordering suffices. `LIVE` is signed because blocks allocated before
// counting started may be freed after it.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

fn grew(bytes: usize) {
    let bytes = bytes as isize;
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never touch
// the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if counting() && !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if counting() && !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        if counting() {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if counting() && !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts counting live heap bytes for the rest of the process.
pub fn start_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Peak live heap since [`start_counting`], in MiB (0 before it).
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_tracks_live_allocations_once_counting() {
        super::start_counting();
        let before = super::peak_mib();
        let block = vec![1u8; 64 << 20];
        assert!(super::peak_mib() >= before.max(64.0));
        drop(block);
    }
}
