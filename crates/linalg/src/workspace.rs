//! Reusable scratch-buffer pool for allocation-free hot loops.
//!
//! The batch scoring paths (KDE density rows, OCSVM decision rows, SMO
//! working-set updates, MARS knot search) each need a handful of scratch
//! vectors per call. Allocating them inside the loop puts `malloc` on the
//! per-row path; a [`Workspace`] lets a caller allocate once and lend the
//! buffers out for the duration of each call.
//!
//! The pool hands out *owned* `Vec<f64>`s (`take`) and accepts them back
//! (`give`): ownership transfer sidesteps the multiple-`&mut`-borrow
//! problem a slice-lending pool would hit, while still guaranteeing that a
//! steady-state take/give cycle performs zero heap allocations once every
//! buffer in flight has reached its high-water length.
//!
//! ```
//! use sidefp_linalg::Workspace;
//!
//! let mut ws = Workspace::new();
//! let mut buf = ws.take(128);       // allocates the first time
//! buf[0] = 1.0;
//! ws.give(buf);
//! let buf = ws.take(128);           // reuses the same storage: no alloc
//! assert_eq!(buf.len(), 128);
//! ws.give(buf);
//! ```

/// A small pool of reusable `f64` scratch vectors.
///
/// `take(len)` returns a zeroed vector of exactly `len` elements, reusing
/// the smallest pooled buffer that fits; `give` returns a buffer to the
/// pool. The pool is deliberately tiny (a plain LIFO stack): the hot
/// paths keep at most a handful of buffers in flight.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Borrows a zeroed scratch vector of exactly `len` elements.
    ///
    /// Best fit: hands out the smallest pooled buffer whose capacity
    /// suffices, so a small request never takes the buffer a larger one
    /// needs. When none fits, the largest pooled buffer grows (or, from an
    /// empty pool, a new one is allocated). Steady-state loops that
    /// `take`/`give` the same sizes therefore stop allocating after the
    /// first iteration.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let capacity = |i: &usize| self.pool[*i].capacity();
        let fit = (0..self.pool.len())
            .filter(|i| capacity(i) >= len)
            .min_by_key(capacity)
            .or_else(|| (0..self.pool.len()).max_by_key(capacity));
        let mut buf = match fit {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f64>) {
        self.pool.push(buf);
    }

    /// Number of buffers currently resting in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|&v| v == 0.0));
        buf.fill(3.0);
        ws.give(buf);
        let again = ws.take(8);
        assert!(again.iter().all(|&v| v == 0.0), "reused buffer not zeroed");
    }

    #[test]
    fn steady_state_reuses_storage() {
        let mut ws = Workspace::new();
        let buf = ws.take(64);
        let ptr = buf.as_ptr();
        ws.give(buf);
        // Same size: must come back from the pool, not a fresh allocation.
        let buf = ws.take(64);
        assert_eq!(buf.as_ptr(), ptr);
        ws.give(buf);
        // Smaller size reuses the same storage too.
        let buf = ws.take(16);
        assert_eq!(buf.as_ptr(), ptr);
        ws.give(buf);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn mixed_sizes_allocate_only_on_the_first_cycle() {
        // A small request first, then a larger one: each must get its own
        // buffer back, or the larger request allocates on every cycle.
        let mut ws = Workspace::new();
        let mut first = None;
        for cycle in 0..4 {
            let small = ws.take(16);
            let large = ws.take(256);
            let storage = (small.as_ptr(), large.as_ptr(), large.capacity());
            ws.give(small);
            ws.give(large);
            let first = *first.get_or_insert(storage);
            assert_eq!(storage, first, "cycle {cycle} allocated");
            assert_eq!(ws.pooled(), 2);
        }
    }

    #[test]
    fn multiple_buffers_in_flight() {
        let mut ws = Workspace::new();
        let a = ws.take(4);
        let b = ws.take(4);
        assert_ne!(a.as_ptr(), b.as_ptr());
        ws.give(a);
        ws.give(b);
        assert_eq!(ws.pooled(), 2);
    }

    /// Property sweep: interleaved checkouts of varying sizes never hand
    /// two in-flight borrowers overlapping storage, and every buffer
    /// still holds exactly what its borrower wrote when it is returned.
    /// The take/give schedule is driven by a deterministic LCG so the
    /// sweep covers many interleavings reproducibly.
    #[test]
    fn interleaved_checkouts_never_alias() {
        let mut ws = Workspace::new();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // (buffer, stamp): each in-flight buffer is filled with a unique
        // stamp at take time and verified untouched at give time.
        let mut in_flight: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut stamp = 0.0f64;
        for step in 0..400 {
            let take_one = in_flight.is_empty() || (step % 3 != 0 && in_flight.len() < 6);
            if take_one {
                let len = 1 + next() % 96;
                let mut buf = ws.take(len);
                assert_eq!(buf.len(), len);
                assert!(buf.iter().all(|&v| v == 0.0), "take returned dirty storage");
                stamp += 1.0;
                buf.fill(stamp);
                // The new range must be disjoint from every in-flight one.
                let lo = buf.as_ptr() as usize;
                let hi = lo + buf.capacity() * std::mem::size_of::<f64>();
                for (other, _) in &in_flight {
                    let olo = other.as_ptr() as usize;
                    let ohi = olo + other.capacity() * std::mem::size_of::<f64>();
                    assert!(
                        hi <= olo || ohi <= lo,
                        "overlapping checkouts at step {step}"
                    );
                }
                in_flight.push((buf, stamp));
            } else {
                let idx = next() % in_flight.len();
                let (buf, expect) = in_flight.swap_remove(idx);
                assert!(
                    buf.iter().all(|&v| v == expect),
                    "buffer clobbered while another checkout was live (step {step})"
                );
                ws.give(buf);
            }
        }
        for (buf, expect) in in_flight {
            assert!(buf.iter().all(|&v| v == expect));
            ws.give(buf);
        }
    }
}
