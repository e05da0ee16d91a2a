//! Packed-panel GEMM micro-kernel with fused epilogues.
//!
//! Every dominant stage of the fingerprinting pipeline bottoms out in a
//! dense product of the form `A·Bᵀ` (kernel Gram matrices, pairwise
//! distance matrices, the SVM decision expansion). This module computes
//! those products the way a BLAS does — operands are repacked into
//! cache-blocked, contiguous panels and consumed by a 4×4 register
//! micro-kernel — and then goes one step further: an [`Epilogue`] hook
//! applies the `‖x‖² + ‖y‖² − 2⟨x,y⟩` identity and the RBF
//! scalar map to each output stripe *while it is still in cache*,
//! eliminating the second full-matrix pass every kernel consumer used to
//! pay after the product was materialized.
//!
//! # Determinism contract
//!
//! Each output element is one ascending-`k` accumulation into a single
//! accumulator — exactly the fold of the classic i-k-j triple loop — so
//! the raw product is **bit-identical** to the naive triple loop on finite
//! inputs, at any thread count, with any blocking. [`Matrix::matmul`] is
//! [`gemm_nn`] behind a shape check. (`KC` blocking stores
//! and reloads the f64 accumulator between panels, which is exact.) The
//! squared-distance epilogue preserves the historical expression
//! verbatim and is bit-identical to the unfused two-pass path; the RBF
//! epilogue swaps libm `exp` for [`vecops::exp`] and is value-identical
//! within ~3e-13 relative.
//!
//! Parallelism uses deterministic guided scheduling
//! ([`sidefp_parallel::for_each_split_mut`]): row stripes form a
//! precomputed tile queue, workers claim stripes via an atomic counter,
//! and every stripe is written only to its own pre-split output slot —
//! the claim order can vary, the bytes cannot.
//!
//! Panel buffers come from a thread-local [`Workspace`] pool, so
//! steady-state single-threaded calls perform zero heap allocations.

use std::cell::RefCell;

use crate::{vecops, Matrix, Workspace};

/// Micro-kernel register tile height (rows of `A` per tile).
pub const MR: usize = 4;
/// Micro-kernel register tile width (rows of `Bᵀ` per tile).
pub const NR: usize = 4;
/// Shared-dimension panel depth: one packed `B` panel (`KC`×`NR`) plus one
/// packed `A` panel (`KC`×`MR`) stay resident in L1 across a tile.
const KC: usize = 256;
/// Rows per parallel stripe (one guided-queue task); a multiple of [`MR`]
/// and [`NR`] so symmetric stripes start on tile boundaries.
const MC: usize = 64;

thread_local! {
    /// Per-thread panel-buffer pool. Thread-local rather than caller-passed
    /// so every entry point (and every worker) reuses packing storage
    /// without threading a `&mut Workspace` through the parallel fan-out.
    static GEMM_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
    /// Per-thread stripe-index scratch (`stripe_starts`, `cuts`). Taken out
    /// of the cell for the duration of a [`run`] call (never borrowed
    /// across the fan-out) and returned with capacity intact, so
    /// steady-state calls build their stripe tables allocation-free.
    static GEMM_IDX: RefCell<(Vec<usize>, Vec<usize>)> = RefCell::new(Default::default());
}

/// Scalar map fused into the GEMM output stripe while it is still hot.
///
/// The variants mirror the kernel consumers in `sidefp-stats`: the raw
/// product (`None`), the squared-distance identity and the RBF map over
/// that identity. `a_norms[i]` / `b_norms[j]` must hold the ascending-fold
/// squared norms of the corresponding rows (see [`self_dot_fold`]) so the
/// `i == j` diagonal of a symmetric product cancels to exactly `0.0`.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Leave the raw dot products in place.
    None,
    /// `out[i][j] = (a_norms[i] + b_norms[j] − 2·p).max(0.0)`.
    SquaredDistance {
        /// Squared norms of the `A` rows (ascending fold).
        a_norms: &'a [f64],
        /// Squared norms of the `B` rows (ascending fold).
        b_norms: &'a [f64],
    },
    /// `out[i][j] = exp(−γ·(a_norms[i] + b_norms[j] − 2·p).max(0.0))`.
    Rbf {
        /// RBF bandwidth γ.
        gamma: f64,
        /// Squared norms of the `A` rows (ascending fold).
        a_norms: &'a [f64],
        /// Squared norms of the `B` rows (ascending fold).
        b_norms: &'a [f64],
    },
}

impl Epilogue<'_> {
    /// Applies the map in place to one output-row segment starting at
    /// column `j0` of global row `i`; `seg` holds the raw dot products.
    ///
    /// Public so a caller forming a single row's dot products with the
    /// micro-kernel's ascending fold gets the GEMM's entries bit for bit.
    pub fn apply_row(&self, i: usize, j0: usize, seg: &mut [f64]) {
        match *self {
            Epilogue::None => {}
            Epilogue::SquaredDistance { a_norms, b_norms } => {
                let ni = a_norms[i];
                for (off, v) in seg.iter_mut().enumerate() {
                    *v = (ni + b_norms[j0 + off] - 2.0 * *v).max(0.0);
                }
            }
            Epilogue::Rbf {
                gamma,
                a_norms,
                b_norms,
            } => {
                let ni = a_norms[i];
                for (off, v) in seg.iter_mut().enumerate() {
                    *v = -gamma * (ni + b_norms[j0 + off] - 2.0 * *v).max(0.0);
                }
                vecops::exp_mut(seg);
            }
        }
    }
}

/// Squared norm of a row as the micro-kernel computes its diagonal dot:
/// one ascending-index fold into a single accumulator. Bit-identical to
/// the GEMM's own `⟨row, row⟩`, which is what makes the fused symmetric
/// RBF diagonal come out exactly `exp(−γ·0) = 1`.
pub fn self_dot_fold(row: &[f64]) -> f64 {
    let mut acc = 0.0;
    for v in row {
        acc += v * v;
    }
    acc
}

/// Which operand layout the shared driver packs `B` panels from.
#[derive(Clone, Copy)]
enum BSide<'a> {
    /// `C = A·B` — `B` is `k×n` row-major.
    Nn(&'a Matrix),
    /// `C = A·Bᵀ` — `B` is `n×k` row-major (panels pack the transpose).
    Nt(&'a Matrix),
}

/// `C = A·B` through the packed-panel path. `out` must be `m×n` and is
/// fully overwritten.
///
/// # Panics
///
/// Panics on operand/output shape mismatches (callers validate shapes at
/// their own API boundary).
pub fn gemm_nn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.ncols(), b.nrows(), "gemm_nn: inner dimensions differ");
    assert_eq!(
        out.shape(),
        (a.nrows(), b.ncols()),
        "gemm_nn: output shape mismatch"
    );
    run(a, BSide::Nn(b), false, &Epilogue::None, out);
}

/// `C = A·Bᵀ` with a fused epilogue. `A` is `m×k`, `B` is `n×k`, `out`
/// must be `m×n` and is fully overwritten.
///
/// # Panics
///
/// Panics on operand/output shape mismatches.
pub fn gemm_nt_fused(a: &Matrix, b: &Matrix, epilogue: &Epilogue<'_>, out: &mut Matrix) {
    assert_eq!(a.ncols(), b.ncols(), "gemm_nt: inner dimensions differ");
    assert_eq!(
        out.shape(),
        (a.nrows(), b.nrows()),
        "gemm_nt: output shape mismatch"
    );
    run(a, BSide::Nt(b), false, epilogue, out);
}

/// Upper triangle of the symmetric product `A·Aᵀ` with a fused epilogue.
///
/// Only columns `j ≥ i` carry epilogue-mapped values on return (plus raw
/// dot-product residue just below the diagonal inside each stripe's
/// leading tile block); the caller mirrors the upper triangle into the
/// lower one. `out` must be `n×n` **zero-initialized** — stripe columns
/// left of the triangle are never written.
///
/// # Panics
///
/// Panics on an output shape mismatch.
pub fn syrk_fused(a: &Matrix, epilogue: &Epilogue<'_>, out: &mut Matrix) {
    assert_eq!(
        out.shape(),
        (a.nrows(), a.nrows()),
        "syrk: output shape mismatch"
    );
    run(a, BSide::Nt(a), true, epilogue, out);
}

/// Batched RBF kernel expansion `out[i] = Σ_j coeffs[j] · exp(−γ·d²ᵢⱼ)`
/// with `d²ᵢⱼ = (‖xᵢ‖² + ‖svⱼ‖² − 2⟨xᵢ, svⱼ⟩).max(0)` — the decision sum
/// of a kernel-expansion one-class SVM over every row of `x`.
///
/// Unlike [`gemm_nt_fused`], the kernel block is never materialized at
/// full size (for a scoring batch that would be an `n×nsv` matrix written
/// and re-read through main memory). `sv` is packed once, query rows
/// stream through in `MC`-row (64-row) chunks whose kernel block stays
/// cache-resident, and each chunk is reduced against `coeffs` right after
/// its fused RBF epilogue. Chunks fan out through the guided tile queue
/// and write only their own `out` rows, so results are bit-identical at
/// any thread count; all scratch comes from the thread-local pool, so
/// steady-state calls allocate nothing.
///
/// Per-element arithmetic — ascending-`k` dot folds, the
/// [`Epilogue::Rbf`] expression, [`vecops::exp`], and the ascending-`j`
/// coefficient fold — matches a pointwise loop written with the same
/// identity form bit for bit.
///
/// # Panics
///
/// Panics when `x` and `sv` column counts differ, `coeffs.len() !=
/// sv.nrows()`, or `out.len() != x.nrows()`.
pub fn rbf_expansion_rows(x: &Matrix, sv: &Matrix, gamma: f64, coeffs: &[f64], out: &mut [f64]) {
    let n = x.nrows();
    let d = x.ncols();
    let nsv = sv.nrows();
    assert_eq!(sv.ncols(), d, "rbf_expansion: dimension mismatch");
    assert_eq!(
        coeffs.len(),
        nsv,
        "rbf_expansion: coefficient count mismatch"
    );
    assert_eq!(out.len(), n, "rbf_expansion: output length mismatch");
    if n == 0 {
        return;
    }
    if nsv == 0 {
        out.fill(0.0);
        return;
    }
    if d == 0 {
        // Every distance is zero, every kernel value exp(0) = 1: each row's
        // sum is the plain ascending coefficient fold.
        let total: f64 = coeffs.iter().sum();
        out.fill(total);
        return;
    }

    // Row norms with the micro-kernel's own ascending fold, so the fused
    // diagonal-style cancellations match the pointwise expansion exactly.
    let mut x_norms = GEMM_WS.with(|ws| ws.borrow_mut().take(n));
    for (i, v) in x_norms.iter_mut().enumerate() {
        *v = self_dot_fold(x.row(i));
    }
    let mut sv_norms = GEMM_WS.with(|ws| ws.borrow_mut().take(nsv));
    for (j, v) in sv_norms.iter_mut().enumerate() {
        *v = self_dot_fold(sv.row(j));
    }
    // Pack every k-panel of `sv` up front (the Nt panel layout of [`run`]);
    // the panel starting at column `kc0` lives at offset
    // `npanels_j · NR · kc0`. The support set is small and shared by every
    // chunk, so unlike [`run`] there is no reason to pack per panel.
    let npanels_j = nsv.div_ceil(NR);
    let mut bpack = GEMM_WS.with(|ws| ws.borrow_mut().take(npanels_j * NR * d));
    for kc0 in (0..d).step_by(KC) {
        let kc_len = KC.min(d - kc0);
        let poff = npanels_j * NR * kc0;
        for j in 0..nsv {
            let brow = &sv.row(j)[kc0..kc0 + kc_len];
            let base = poff + (j / NR) * kc_len * NR + (j % NR);
            for (kk, &v) in brow.iter().enumerate() {
                bpack[base + kk * NR] = v;
            }
        }
    }

    let (mut stripe_starts, mut cuts) = GEMM_IDX.with(|c| std::mem::take(&mut *c.borrow_mut()));
    stripe_starts.clear();
    stripe_starts.extend((0..n).step_by(MC));
    cuts.clear();
    cuts.extend(stripe_starts.iter().skip(1).copied());

    let epi = Epilogue::Rbf {
        gamma,
        a_norms: &x_norms,
        b_norms: &sv_norms,
    };
    let (bpack_ref, stripes_ref) = (&bpack, &stripe_starts);
    sidefp_parallel::for_each_split_mut(out, &cuts, |c, seg| {
        let row0 = stripes_ref[c];
        let rows = seg.len();
        let npanels_i = rows.div_ceil(MR);
        let mut kbuf = GEMM_WS.with(|ws| ws.borrow_mut().take(rows * nsv));
        for (kci, kc0) in (0..d).step_by(KC).enumerate() {
            let kc_len = KC.min(d - kc0);
            let first = kci == 0;
            let poff = npanels_j * NR * kc0;
            let mut apack = GEMM_WS.with(|ws| ws.borrow_mut().take(npanels_i * kc_len * MR));
            for li in 0..rows {
                let arow = &x.row(row0 + li)[kc0..kc0 + kc_len];
                let base = (li / MR) * kc_len * MR + (li % MR);
                for (kk, &v) in arow.iter().enumerate() {
                    apack[base + kk * MR] = v;
                }
            }
            for pi in 0..npanels_i {
                let lr0 = pi * MR;
                let mr = MR.min(rows - lr0);
                let apanel = &apack[pi * kc_len * MR..(pi + 1) * kc_len * MR];
                for pj in 0..npanels_j {
                    let j0 = pj * NR;
                    let nr = NR.min(nsv - j0);
                    let bpanel = &bpack_ref[poff + pj * kc_len * NR..poff + (pj + 1) * kc_len * NR];
                    micro_dispatch(
                        mr,
                        nr,
                        kc_len,
                        apanel,
                        bpanel,
                        &mut kbuf[lr0 * nsv + j0..],
                        nsv,
                        first,
                    );
                }
            }
            GEMM_WS.with(|ws| ws.borrow_mut().give(apack));
        }
        // Epilogue + coefficient fold while the chunk block is still hot.
        for (lr, o) in seg.iter_mut().enumerate() {
            let krow = &mut kbuf[lr * nsv..(lr + 1) * nsv];
            epi.apply_row(row0 + lr, 0, krow);
            let mut sum = 0.0;
            for (a, v) in coeffs.iter().zip(krow.iter()) {
                sum += a * v;
            }
            *o = sum;
        }
        GEMM_WS.with(|ws| ws.borrow_mut().give(kbuf));
    });
    GEMM_IDX.with(|c| *c.borrow_mut() = (stripe_starts, cuts));
    GEMM_WS.with(|ws| {
        let mut ws = ws.borrow_mut();
        ws.give(bpack);
        ws.give(sv_norms);
        ws.give(x_norms);
    });
}

/// Shared blocked driver behind the public entry points.
fn run(a: &Matrix, bside: BSide<'_>, upper: bool, epi: &Epilogue<'_>, out: &mut Matrix) {
    let m = a.nrows();
    let k = a.ncols();
    let n = match bside {
        BSide::Nn(b) => b.ncols(),
        BSide::Nt(b) => b.nrows(),
    };
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No products to form; the epilogue still maps the (zero) dots so
        // degenerate shapes keep the unfused path's semantics.
        for i in 0..m {
            let jlo = if upper { i } else { 0 };
            let row = out.row_mut(i);
            epi.apply_row(i, jlo, &mut row[jlo..]);
        }
        return;
    }

    let npanels_j = n.div_ceil(NR);
    let (mut stripe_starts, mut cuts) = GEMM_IDX.with(|c| std::mem::take(&mut *c.borrow_mut()));
    stripe_starts.clear();
    stripe_starts.extend((0..m).step_by(MC));
    cuts.clear();
    cuts.extend(stripe_starts.iter().skip(1).map(|&r| r * n));
    let nkc = k.div_ceil(KC);

    for (kci, kc0) in (0..k).step_by(KC).enumerate() {
        let kc_len = KC.min(k - kc0);
        let first = kci == 0;
        let last = kci + 1 == nkc;
        // Pack the full B block for this k-panel once; stripes share it
        // immutably. `Workspace::take` hands the buffer back zeroed, so
        // edge-panel padding lanes are already 0.0.
        let mut bpack = GEMM_WS.with(|ws| ws.borrow_mut().take(npanels_j * kc_len * NR));
        match bside {
            BSide::Nn(b) => {
                for kk in 0..kc_len {
                    let brow = b.row(kc0 + kk);
                    for (j, &v) in brow.iter().enumerate() {
                        bpack[(j / NR) * kc_len * NR + kk * NR + (j % NR)] = v;
                    }
                }
            }
            BSide::Nt(b) => {
                for j in 0..n {
                    let brow = &b.row(j)[kc0..kc0 + kc_len];
                    let base = (j / NR) * kc_len * NR + (j % NR);
                    for (kk, &v) in brow.iter().enumerate() {
                        bpack[base + kk * NR] = v;
                    }
                }
            }
        }

        let bpack_ref = &bpack;
        sidefp_parallel::for_each_split_mut(out.as_mut_slice(), &cuts, |s, stripe| {
            let row0 = stripe_starts[s];
            let rows = MC.min(m - row0);
            // Symmetric fills only need columns j ≥ row0; MC is a multiple
            // of NR, so the stripe starts exactly on a tile boundary.
            let pj0 = if upper { row0 / NR } else { 0 };
            let npanels_i = rows.div_ceil(MR);
            let mut apack = GEMM_WS.with(|ws| ws.borrow_mut().take(npanels_i * kc_len * MR));
            for li in 0..rows {
                let arow = &a.row(row0 + li)[kc0..kc0 + kc_len];
                let base = (li / MR) * kc_len * MR + (li % MR);
                for (kk, &v) in arow.iter().enumerate() {
                    apack[base + kk * MR] = v;
                }
            }
            for pi in 0..npanels_i {
                let lr0 = pi * MR;
                let mr = MR.min(rows - lr0);
                let apanel = &apack[pi * kc_len * MR..(pi + 1) * kc_len * MR];
                for pj in pj0..npanels_j {
                    let j0 = pj * NR;
                    let nr = NR.min(n - j0);
                    let bpanel = &bpack_ref[pj * kc_len * NR..(pj + 1) * kc_len * NR];
                    micro_dispatch(
                        mr,
                        nr,
                        kc_len,
                        apanel,
                        bpanel,
                        &mut stripe[lr0 * n + j0..],
                        n,
                        first,
                    );
                }
            }
            if last {
                for lr in 0..rows {
                    let i = row0 + lr;
                    let jlo = if upper { i } else { 0 };
                    epi.apply_row(i, jlo, &mut stripe[lr * n + jlo..lr * n + n]);
                }
            }
            GEMM_WS.with(|ws| ws.borrow_mut().give(apack));
        });
        GEMM_WS.with(|ws| ws.borrow_mut().give(bpack));
    }
    GEMM_IDX.with(|c| *c.borrow_mut() = (stripe_starts, cuts));
}

/// Register micro-kernel: an `M×N` corner of the full `MR×NR` tile.
///
/// Accumulators live in registers for the whole `kc` sweep; `first`
/// selects zero-initialization (first k-panel) versus reloading the
/// partial sums stored by the previous panel. Either way each output
/// element is a single ascending-`k` fold, which is the bit-identity
/// anchor for the whole module.
#[inline(always)]
fn micro_tile<const M: usize, const N: usize>(
    kc: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    first: bool,
) {
    let mut acc = [[0.0f64; NR]; MR];
    if !first {
        for r in 0..M {
            for q in 0..N {
                acc[r][q] = c[r * ldc + q];
            }
        }
    }
    for kk in 0..kc {
        let av = &a[kk * MR..kk * MR + MR];
        let bv = &b[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let ar = av[r];
            for q in 0..NR {
                acc[r][q] += ar * bv[q];
            }
        }
    }
    for r in 0..M {
        for q in 0..N {
            c[r * ldc + q] = acc[r][q];
        }
    }
}

/// Dispatches an edge tile to the matching const-generic micro-kernel so
/// every tail path is a fully unrolled straight-line kernel.
#[allow(clippy::too_many_arguments)]
fn micro_dispatch(
    mr: usize,
    nr: usize,
    kc: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    first: bool,
) {
    macro_rules! tails {
        ($(($m:literal, $n:literal)),* $(,)?) => {
            match (mr, nr) {
                $(($m, $n) => micro_tile::<$m, $n>(kc, a, b, c, ldc, first),)*
                _ => unreachable!("tile {mr}x{nr} outside 1..=4 x 1..=4"),
            }
        };
    }
    tails!(
        (4, 4),
        (4, 3),
        (4, 2),
        (4, 1),
        (3, 4),
        (3, 3),
        (3, 2),
        (3, 1),
        (2, 4),
        (2, 3),
        (2, 2),
        (2, 1),
        (1, 4),
        (1, 3),
        (1, 2),
        (1, 1),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(m: usize, k: usize, seed: f64) -> Matrix {
        Matrix::from_fn(m, k, |i, j| {
            (seed + i as f64 * 1.618 + j as f64 * 0.731).sin() * 3.0
        })
    }

    /// Independent reference: the naive i-k-j triple loop, a single
    /// ascending-k fold per output element (what `matmul` documents).
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for k in 0..a.ncols() {
                let av = a[(i, k)];
                for j in 0..b.ncols() {
                    out[(i, j)] += av * b[(k, j)];
                }
            }
        }
        out
    }

    #[test]
    fn gemm_nn_bit_identical_to_matmul_across_shapes() {
        // Edge tails in every dimension, multiple k-panels, tiny shapes.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 4),
            (17, 6, 23),
            (65, 300, 9),
            (70, 6, 70),
            (130, 520, 11),
        ] {
            let a = toy(m, k, 0.3);
            let b = toy(k, n, 1.1);
            let want = naive(&a, &b);
            let mut got = Matrix::zeros(m, n);
            gemm_nn(&a, &b, &mut got);
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "shape {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_nt_bit_identical_to_matmul_with_transpose() {
        for (m, k, n) in [(5, 3, 5), (33, 6, 41), (64, 17, 64), (100, 260, 7)] {
            let a = toy(m, k, 0.7);
            let b = toy(n, k, 2.2);
            let want = naive(&a, &b.transpose());
            let mut got = Matrix::zeros(m, n);
            gemm_nt_fused(&a, &b, &Epilogue::None, &mut got);
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "shape {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_identical_at_any_thread_count() {
        let a = toy(130, 6, 0.5);
        let b = toy(97, 6, 1.9);
        let reference = sidefp_parallel::with_threads(1, || {
            let mut out = Matrix::zeros(130, 97);
            gemm_nt_fused(&a, &b, &Epilogue::None, &mut out);
            out
        });
        for threads in [2, 3, 8] {
            let got = sidefp_parallel::with_threads(threads, || {
                let mut out = Matrix::zeros(130, 97);
                gemm_nt_fused(&a, &b, &Epilogue::None, &mut out);
                out
            });
            for (x, y) in got.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    fn syrk_upper_triangle_matches_full_product() {
        for n in [1usize, 4, 37, 64, 100, 140] {
            let a = toy(n, 6, 0.9);
            let want = naive(&a, &a.transpose());
            let mut got = Matrix::zeros(n, n);
            syrk_fused(&a, &Epilogue::None, &mut got);
            for i in 0..n {
                for j in i..n {
                    assert_eq!(
                        got[(i, j)].to_bits(),
                        want[(i, j)].to_bits(),
                        "n {n} entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn squared_distance_epilogue_matches_two_pass_identity() {
        let a = toy(50, 6, 0.4);
        let norms: Vec<f64> = (0..50).map(|i| self_dot_fold(a.row(i))).collect();
        // Unfused reference: raw product, then the identity as a second pass.
        let p = naive(&a, &a.transpose());
        let mut got = Matrix::zeros(50, 50);
        syrk_fused(
            &a,
            &Epilogue::SquaredDistance {
                a_norms: &norms,
                b_norms: &norms,
            },
            &mut got,
        );
        for i in 0..50 {
            for j in i..50 {
                let want = (norms[i] + norms[j] - 2.0 * p[(i, j)]).max(0.0);
                assert_eq!(got[(i, j)].to_bits(), want.to_bits(), "entry ({i},{j})");
            }
            assert_eq!(got[(i, i)], 0.0, "diagonal distance must cancel exactly");
        }
    }

    #[test]
    fn rbf_epilogue_diagonal_is_exactly_one() {
        let a = toy(40, 6, 1.3);
        let norms: Vec<f64> = (0..40).map(|i| self_dot_fold(a.row(i))).collect();
        let mut got = Matrix::zeros(40, 40);
        syrk_fused(
            &a,
            &Epilogue::Rbf {
                gamma: 0.5,
                a_norms: &norms,
                b_norms: &norms,
            },
            &mut got,
        );
        for i in 0..40 {
            assert_eq!(got[(i, i)].to_bits(), 1.0_f64.to_bits(), "diagonal {i}");
        }
    }

    #[test]
    fn rbf_expansion_rows_bit_identical_to_pointwise_identity_loop() {
        // Shapes covering multiple row chunks, edge tiles in both panel
        // dimensions, and a shared dimension spanning two k-panels.
        for (n, nsv, d) in [(1, 1, 1), (9, 5, 3), (70, 37, 6), (140, 66, 300)] {
            let x = toy(n, d, 0.6);
            let sv = toy(nsv, d, 1.4);
            let coeffs: Vec<f64> = (0..nsv).map(|j| 1.0 / (j + 1) as f64).collect();
            let gamma = 0.7;
            let mut got = vec![0.0; n];
            rbf_expansion_rows(&x, &sv, gamma, &coeffs, &mut got);
            for i in 0..n {
                let xn = self_dot_fold(x.row(i));
                let mut want = 0.0;
                for j in 0..nsv {
                    let svr = sv.row(j);
                    let mut p = 0.0;
                    for (a, b) in svr.iter().zip(x.row(i)) {
                        p += a * b;
                    }
                    let e = -gamma * (xn + self_dot_fold(svr) - 2.0 * p).max(0.0);
                    want += coeffs[j] * vecops::exp(e);
                }
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "shape {n}x{nsv}x{d} row {i}"
                );
            }
        }
    }

    #[test]
    fn rbf_expansion_rows_identical_at_any_thread_count() {
        let x = toy(150, 7, 0.2);
        let sv = toy(41, 7, 2.4);
        let coeffs: Vec<f64> = (0..41).map(|j| ((j as f64) * 0.3).cos()).collect();
        let reference = sidefp_parallel::with_threads(1, || {
            let mut out = vec![0.0; 150];
            rbf_expansion_rows(&x, &sv, 0.9, &coeffs, &mut out);
            out
        });
        for threads in [2, 3, 8] {
            let got = sidefp_parallel::with_threads(threads, || {
                let mut out = vec![0.0; 150];
                rbf_expansion_rows(&x, &sv, 0.9, &coeffs, &mut out);
                out
            });
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    fn rbf_expansion_rows_degenerate_shapes() {
        // No support vectors: the sum is empty.
        let x = toy(3, 2, 0.1);
        let sv = Matrix::zeros(0, 2);
        let mut out = vec![9.0; 3];
        rbf_expansion_rows(&x, &sv, 1.0, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
        // Zero-dimensional rows: every kernel value is exp(0) = 1.
        let x = Matrix::zeros(2, 0);
        let sv = Matrix::zeros(3, 0);
        let mut out = vec![0.0; 2];
        rbf_expansion_rows(&x, &sv, 1.0, &[0.5, 0.25, 0.125], &mut out);
        assert_eq!(out, vec![0.875; 2]);
        // No query rows: nothing to write.
        let x = Matrix::zeros(0, 4);
        let sv = toy(2, 4, 0.8);
        rbf_expansion_rows(&x, &sv, 1.0, &[1.0, 1.0], &mut []);
    }

    #[test]
    fn self_dot_fold_matches_gemm_diagonal() {
        let a = toy(30, 7, 2.0);
        let p = naive(&a, &a.transpose());
        for i in 0..30 {
            assert_eq!(
                self_dot_fold(a.row(i)).to_bits(),
                p[(i, i)].to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn degenerate_shapes_are_no_ops_or_epilogue_only() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(0, 4);
        let mut out = Matrix::zeros(0, 0);
        gemm_nt_fused(&a, &b, &Epilogue::None, &mut out);
        // k == 0: dots are zero, the epilogue still maps them.
        let a = Matrix::zeros(3, 0);
        let mut out = Matrix::zeros(3, 3);
        let norms = [0.0; 3];
        syrk_fused(
            &a,
            &Epilogue::Rbf {
                gamma: 0.5,
                a_norms: &norms,
                b_norms: &norms,
            },
            &mut out,
        );
        for i in 0..3 {
            for j in i..3 {
                assert_eq!(out[(i, j)], 1.0);
            }
        }
    }
}
