//! Small vector helpers shared across the workspace.
//!
//! These operate on plain `&[f64]` slices so that callers are not forced to
//! wrap everything in a [`crate::Matrix`].
//!
//! The reductions (`dot`, `sq_norm`, `squared_distance`) run 4-wide
//! unrolled accumulators: four independent partial sums over the
//! `chunks_exact(4)` body, a sequential tail, combined as
//! `(acc0 + acc1) + (acc2 + acc3) + tail`. The accumulation order is a
//! fixed function of the slice length — never of thread count or timing —
//! so results stay bit-identical across runs and worker-pool sizes, which
//! is what the determinism contract requires. (The order does differ from
//! a plain left-to-right fold by O(ε) rounding; callers that compare
//! against naively-summed references use tolerances, not exact equality.)

/// Dot product of two slices.
///
/// Lengths up to 8 — the 6-dim fingerprint vectors and every PCM suite in
/// the workspace — dispatch to the monomorphized `dot_fixed` (fully
/// unrolled, no trip-count branching); the result is bit-identical either
/// way.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(sidefp_linalg::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match a.len() {
        1 => dot_fixed::<1>(a, b),
        2 => dot_fixed::<2>(a, b),
        3 => dot_fixed::<3>(a, b),
        4 => dot_fixed::<4>(a, b),
        5 => dot_fixed::<5>(a, b),
        6 => dot_fixed::<6>(a, b),
        7 => dot_fixed::<7>(a, b),
        8 => dot_fixed::<8>(a, b),
        _ => dot_any(a, b),
    }
}

/// Length-generic body of [`dot`] (the pre-dispatch implementation).
fn dot_any(a: &[f64], b: &[f64]) -> f64 {
    let split = a.len() & !3;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dot product monomorphized for the compile-time length `N`.
///
/// The accumulation layout (4-wide unrolled body, sequential tail,
/// `(acc0 + acc1) + (acc2 + acc3) + tail` combine) is exactly the
/// length-generic one, so the result is bit-identical to [`dot`] — but
/// with `N` fixed the compiler erases every trip-count branch and emits a
/// straight-line kernel, which is what the 6-dim fingerprint inner loops
/// want.
///
/// # Panics
///
/// Panics if either slice's length differs from `N`.
#[inline]
fn dot_fixed<const N: usize>(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), N, "dot_fixed: length mismatch");
    assert_eq!(b.len(), N, "dot_fixed: length mismatch");
    let split = N & !3;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Squared Euclidean norm of a slice (`⟨a, a⟩`).
pub fn sq_norm(a: &[f64]) -> f64 {
    dot(a, a)
}

/// Euclidean norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    sq_norm(a).sqrt()
}

/// Squared Euclidean distance between two slices.
///
/// Lengths up to 8 dispatch to the monomorphized
/// `squared_distance_fixed`; the result is bit-identical either way.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    match a.len() {
        1 => squared_distance_fixed::<1>(a, b),
        2 => squared_distance_fixed::<2>(a, b),
        3 => squared_distance_fixed::<3>(a, b),
        4 => squared_distance_fixed::<4>(a, b),
        5 => squared_distance_fixed::<5>(a, b),
        6 => squared_distance_fixed::<6>(a, b),
        7 => squared_distance_fixed::<7>(a, b),
        8 => squared_distance_fixed::<8>(a, b),
        _ => squared_distance_any(a, b),
    }
}

/// Length-generic body of [`squared_distance`] (the pre-dispatch
/// implementation).
fn squared_distance_any(a: &[f64], b: &[f64]) -> f64 {
    let split = a.len() & !3;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Squared Euclidean distance monomorphized for the compile-time length
/// `N`, with the exact accumulation layout of [`squared_distance`] — see
/// `dot_fixed` for why the results are bit-identical.
///
/// # Panics
///
/// Panics if either slice's length differs from `N`.
#[inline]
fn squared_distance_fixed<const N: usize>(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), N, "squared_distance_fixed: length mismatch");
    assert_eq!(b.len(), N, "squared_distance_fixed: length mismatch");
    let split = N & !3;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean distance between two slices.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

// ---- fast exponential -----------------------------------------------------
//
// The kernel hot loops (RBF Gram epilogues, OCSVM decision strips, KDE
// densities) spend most of their scalar time inside `exp`. The polynomial
// implementation below is branchless — clamp instead of early returns,
// magic-number round-to-even instead of `round()` — so the 4-wide driver
// in [`exp_mut`] pipelines across elements instead of serializing on one
// long dependency chain. Max relative error vs libm is ~3e-13 over the
// finite range, far inside the workspace's 1e-9 value-identity contract,
// and `exp(0.0) == exp(-0.0) == 1.0` holds exactly (RBF Gram diagonals
// stay exactly 1).

/// log2(e), split base for the range reduction.
const EXP_LOG2E: f64 = std::f64::consts::LOG2_E;
/// Cody–Waite split of ln(2): high part (exact to ~32 bits)…
const EXP_LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// …and the low-order remainder, so `x − k·ln2` loses no precision.
const EXP_LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1.5·2⁵², the round-to-even magic constant: adding it pushes the
/// integer part of `x·log2(e)` into the low mantissa bits.
const EXP_RND: f64 = 6_755_399_441_055_744.0;
/// Inputs beyond ±700 are clamped; `exp` saturates to the clamp value
/// (≈1e−305 / 1e304), which is below/above anything the kernel maps
/// produce (RBF arguments are ≤ 0 and bounded by −γ·max d²).
const EXP_CLAMP: f64 = 700.0;

/// Fast branchless `eˣ` (polynomial approximation, ~3e-13 relative error).
///
/// Inputs are clamped to ±700 before evaluation, so the result is always
/// finite and strictly positive; `exp(0.0)` and `exp(-0.0)` are exactly
/// `1.0`. Non-finite inputs follow the clamp (NaN clamps to a finite
/// value), so callers must screen NaN themselves — every kernel path in
/// this workspace validates finiteness upstream.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    // k = round(x·log2 e) via the shift trick; kf is k as an f64.
    let kf_biased = x * EXP_LOG2E + EXP_RND;
    let k = (kf_biased.to_bits() as i64).wrapping_sub(EXP_RND.to_bits() as i64);
    let kf = kf_biased - EXP_RND;
    // r = x − k·ln2, computed in two pieces so r keeps full precision.
    let r = (x - kf * EXP_LN2_HI) - kf * EXP_LN2_LO;
    // Degree-10 Taylor polynomial in Estrin-split form: the low half and
    // the high half evaluate in parallel, halving the dependency chain.
    let r2 = r * r;
    let lo = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0)))));
    let hi = 1.0 / 720.0
        + r * (1.0 / 5040.0
            + r * (1.0 / 40320.0 + r * (1.0 / 362_880.0 + r * (1.0 / 3_628_800.0))));
    let r6 = r2 * r2 * r2;
    let p = lo + r6 * hi;
    // 2^k assembled straight into the exponent field; k is in [-1011, 1011]
    // after the clamp, so the biased exponent never overflows.
    let scale = f64::from_bits(((k + 1023) as u64) << 52);
    p * scale
}

/// In-place `eˣ` over a slice, 4-wide unrolled.
///
/// Same arithmetic as [`exp`] element-wise (bit-identical results); the
/// manual unroll lets the four branchless evaluations pipeline, which is
/// where the speedup over one libm call per element comes from.
pub fn exp_mut(xs: &mut [f64]) {
    let split = xs.len() & !3;
    for chunk in xs[..split].chunks_exact_mut(4) {
        let e0 = exp(chunk[0]);
        let e1 = exp(chunk[1]);
        let e2 = exp(chunk[2]);
        let e3 = exp(chunk[3]);
        chunk[0] = e0;
        chunk[1] = e1;
        chunk[2] = e2;
        chunk[3] = e3;
    }
    for v in &mut xs[split..] {
        *v = exp(*v);
    }
}

/// In-place `a += s * b`, 4-wide unrolled (the BLAS axpy).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy_mut(a: &mut [f64], s: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy_mut: length mismatch");
    let split = a.len() & !3;
    for (ca, cb) in a[..split]
        .chunks_exact_mut(4)
        .zip(b[..split].chunks_exact(4))
    {
        ca[0] += s * cb[0];
        ca[1] += s * cb[1];
        ca[2] += s * cb[2];
        ca[3] += s * cb[3];
    }
    for (x, y) in a[split..].iter_mut().zip(&b[split..]) {
        *x += s * y;
    }
}

/// Element-wise `a + s * b`, returning a new vector (axpy).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn axpy(a: &[f64], s: f64, b: &[f64]) -> Vec<f64> {
    let mut out = a.to_vec();
    axpy_mut(&mut out, s, b);
    out
}

/// Element-wise difference `a − b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    axpy(a, -1.0, b)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Scales a vector in place.
pub fn scale_mut(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(sq_norm(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert!((distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn unrolled_reductions_match_naive_on_long_inputs() {
        // Lengths straddling the 4-wide unroll boundary, including tails.
        for n in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 101] {
            let a: Vec<f64> = (0..n).map(|i| 0.3 + i as f64 * 0.7).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.1 - i as f64 * 0.2).collect();
            let naive_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let naive_sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let rel = |got: f64, want: f64| (got - want).abs() / want.abs().max(1.0);
            assert!(rel(dot(&a, &b), naive_dot) < 1e-12, "dot len {n}");
            assert!(
                rel(squared_distance(&a, &b), naive_sq) < 1e-12,
                "sqd len {n}"
            );
        }
    }

    #[test]
    fn axpy_and_sub() {
        assert_eq!(axpy(&[1.0, 1.0], 2.0, &[1.0, 2.0]), vec![3.0, 5.0]);
        assert_eq!(sub(&[5.0, 3.0], &[1.0, 1.0]), vec![4.0, 2.0]);
        let mut a = vec![1.0; 7];
        axpy_mut(&mut a, 0.5, &[2.0; 7]);
        assert_eq!(a, vec![2.0; 7]);
    }

    #[test]
    fn fixed_length_paths_bit_identical_to_generic() {
        // The const-generic kernels must reproduce the generic layout down
        // to the last bit, including awkward values (subnormals, huge
        // magnitude spread) where accumulation order matters.
        fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
            let a: Vec<f64> = (0..n)
                .map(|i| (0.37 + i as f64 * 1.618).sin() * 10f64.powi(i as i32 % 7 - 3))
                .collect();
            let b: Vec<f64> = (0..n)
                .map(|i| (1.22 - i as f64 * 0.731).cos() * 10f64.powi((i as i32 + 2) % 5 - 2))
                .collect();
            (a, b)
        }
        macro_rules! check_n {
            ($($n:literal),*) => {$(
                let (a, b) = vecs($n);
                assert_eq!(
                    dot_fixed::<$n>(&a, &b).to_bits(),
                    dot_any(&a, &b).to_bits(),
                    "dot_fixed len {}", $n
                );
                assert_eq!(
                    squared_distance_fixed::<$n>(&a, &b).to_bits(),
                    squared_distance_any(&a, &b).to_bits(),
                    "squared_distance_fixed len {}", $n
                );
                // The public entry points dispatch to the fixed kernels at
                // these lengths; they must agree too.
                assert_eq!(dot(&a, &b).to_bits(), dot_any(&a, &b).to_bits());
                assert_eq!(
                    squared_distance(&a, &b).to_bits(),
                    squared_distance_any(&a, &b).to_bits()
                );
            )*};
        }
        check_n!(1, 2, 3, 4, 5, 6, 7, 8);
    }

    #[test]
    #[should_panic(expected = "dot_fixed: length mismatch")]
    fn dot_fixed_panics_on_wrong_length() {
        dot_fixed::<3>(&[1.0, 2.0], &[3.0, 4.0]);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale_mut(&mut v, 3.0);
        assert_eq!(v, vec![3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn exp_matches_libm_to_contract_tolerance() {
        // Dense sweep over the range the kernel maps actually use (RBF
        // arguments are ≤ 0) plus the positive side for completeness.
        let mut max_rel = 0.0_f64;
        for t in -40_000..=40_000 {
            let x = t as f64 * 0.0173;
            let got = exp(x);
            let want = x.exp();
            let rel = (got - want).abs() / want;
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 1e-12, "max relative error {max_rel}");
    }

    #[test]
    fn exp_is_exact_at_zero_and_saturates() {
        assert_eq!(exp(0.0).to_bits(), 1.0_f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0_f64.to_bits());
        // Beyond the clamp the result saturates but stays finite/positive.
        assert!(exp(-1e9) > 0.0 && exp(-1e9).is_finite());
        assert!(exp(1e9).is_finite());
        assert_eq!(exp(-800.0), exp(-700.0));
    }

    #[test]
    fn exp_mut_bit_identical_to_scalar() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 64, 101] {
            let xs: Vec<f64> = (0..n).map(|i| -8.0 + i as f64 * 0.37).collect();
            let mut batch = xs.clone();
            exp_mut(&mut batch);
            for (b, x) in batch.iter().zip(&xs) {
                assert_eq!(b.to_bits(), exp(*x).to_bits(), "len {n}");
            }
        }
    }
}
