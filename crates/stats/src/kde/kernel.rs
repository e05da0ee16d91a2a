use rand::Rng;

use crate::MultivariateNormal;

/// Relative margin of the radius test's cheap value: a draw farther than
/// this from `r^{d−1}(1 − r²)` is decided on `powi`, which differs from
/// `powf` by at most `(d − 1)·2⁻⁵³` relative (binary powering) plus
/// `powf`'s own 1 ulp — under 3e-15 for any fingerprint width up to 20,
/// far inside the margin.
const SQUEEZE_MARGIN: f64 = 1e-12;

/// Below this cheap value the test always takes the `powf` path, so a
/// `powi` product that loses precision near the subnormal range is never
/// trusted.
const SQUEEZE_FLOOR: f64 = 1e-280;

/// The multivariate Epanechnikov kernel (paper Eq. 6).
///
/// `K_e(t) = ½·c_d⁻¹·(d+2)·(1 − tᵀt)` for `tᵀt < 1`, zero otherwise, where
/// `c_d` is the volume of the unit `d`-ball. The kernel is the
/// mean-integrated-squared-error-optimal second-order kernel and — unlike a
/// Gaussian — has compact support, which keeps the synthetic tails honest.
///
/// # Example
///
/// ```
/// use sidefp_stats::kde::Epanechnikov;
///
/// let k = Epanechnikov::new(2);
/// assert!(k.density(&[0.0, 0.0]) > 0.0);
/// assert_eq!(k.density(&[1.0, 1.0]), 0.0); // outside the unit ball
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epanechnikov {
    dim: usize,
    normalization: f64,
    /// Envelope of the radial rejection sampler: the maximum of
    /// `r^{d−1}(1 − r²)` on `[0, 1]`.
    f_max: f64,
}

impl Epanechnikov {
    /// Creates the kernel for dimension `dim` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "Epanechnikov kernel requires dim >= 1");
        let c_d = Self::unit_ball_volume(dim);
        let d = dim as f64;
        // r^0 (1 − r²) is maximal at r = 0; otherwise at the mode
        // r = √((d − 1)/(d + 1)).
        let f_max = if dim == 1 {
            1.0
        } else {
            let r_mode = ((d - 1.0) / (d + 1.0)).sqrt();
            r_mode.powf(d - 1.0).max(f64::MIN_POSITIVE) * (1.0 - r_mode * r_mode)
        };
        Epanechnikov {
            dim,
            normalization: 0.5 * (d + 2.0) / c_d,
            f_max,
        }
    }

    /// Volume of the unit `d`-ball, via the even/odd recursion
    /// `V_d = V_{d−2} · 2π / d` with `V_0 = 1`, `V_1 = 2`.
    pub(crate) fn unit_ball_volume(dim: usize) -> f64 {
        match dim {
            0 => 1.0,
            1 => 2.0,
            d => Self::unit_ball_volume(d - 2) * 2.0 * std::f64::consts::PI / d as f64,
        }
    }

    /// Kernel dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Kernel density at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t.len() != dim()`.
    pub fn density(&self, t: &[f64]) -> f64 {
        assert_eq!(t.len(), self.dim, "kernel dimension mismatch");
        let t2: f64 = t.iter().map(|v| v * v).sum();
        if t2 < 1.0 {
            self.normalization * (1.0 - t2)
        } else {
            0.0
        }
    }

    /// Kernel density given the squared radius `tᵀt` directly
    /// (avoids re-computing distances in the KDE hot loop).
    pub fn density_from_sq_radius(&self, t2: f64) -> f64 {
        if t2 < 1.0 {
            self.normalization * (1.0 - t2)
        } else {
            0.0
        }
    }

    /// Writes a random offset distributed according to the kernel into
    /// `out`.
    ///
    /// Radius: rejection sampling from the marginal `∝ r^{d−1}(1 − r²)`
    /// (each try draws `r`, then `u`). Direction: uniform on the
    /// `d`-sphere (`d` normalized Gaussians, drawn after the radius).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()`.
    pub fn sample_into<R: Rng>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "kernel dimension mismatch");
        let radius = loop {
            let r: f64 = rng.random::<f64>();
            if self.accepts(r, rng.random::<f64>()) {
                break r;
            }
        };
        for v in out.iter_mut() {
            *v = MultivariateNormal::standard_normal(rng);
        }
        let norm: f64 = out.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < f64::MIN_POSITIVE {
            // Astronomically unlikely; return the origin.
            out.fill(0.0);
            return;
        }
        let scale = radius / norm;
        for v in out.iter_mut() {
            *v *= scale;
        }
    }

    /// The radius test `u·f_max ≤ r^{d−1}(1 − r²)` with `r^{d−1}` from
    /// `powf`, decided on the cheaper `powi` value whenever the two sides
    /// are more than [`SQUEEZE_MARGIN`] apart (a squeeze): the decision
    /// equals the `powf`-only test's, so the sampled bits do too.
    fn accepts(&self, r: f64, u: f64) -> bool {
        let t = u * self.f_max;
        let tail = 1.0 - r * r;
        let cheap = r.powi(self.dim as i32 - 1) * tail;
        if cheap >= SQUEEZE_FLOOR && (t - cheap).abs() > SQUEEZE_MARGIN * cheap {
            return t <= cheap;
        }
        t <= r.powf(self.dim as f64 - 1.0) * tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_ball_volumes_match_known_values() {
        assert!((Epanechnikov::unit_ball_volume(1) - 2.0).abs() < 1e-12);
        assert!((Epanechnikov::unit_ball_volume(2) - std::f64::consts::PI).abs() < 1e-12);
        let v3 = 4.0 / 3.0 * std::f64::consts::PI;
        assert!((Epanechnikov::unit_ball_volume(3) - v3).abs() < 1e-12);
        let v4 = std::f64::consts::PI.powi(2) / 2.0;
        assert!((Epanechnikov::unit_ball_volume(4) - v4).abs() < 1e-12);
    }

    #[test]
    fn density_integrates_to_one_1d() {
        // Midpoint rule over [-1, 1].
        let k = Epanechnikov::new(1);
        let n = 100_000;
        let dx = 2.0 / n as f64;
        let integral: f64 = (0..n)
            .map(|i| {
                let x = -1.0 + (i as f64 + 0.5) * dx;
                k.density(&[x]) * dx
            })
            .sum();
        assert!((integral - 1.0).abs() < 1e-4, "integral {integral}");
    }

    #[test]
    fn density_integrates_to_one_2d() {
        let k = Epanechnikov::new(2);
        let n = 400;
        let dx = 2.0 / n as f64;
        let mut integral = 0.0;
        for i in 0..n {
            for j in 0..n {
                let x = -1.0 + (i as f64 + 0.5) * dx;
                let y = -1.0 + (j as f64 + 0.5) * dx;
                integral += k.density(&[x, y]) * dx * dx;
            }
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn compact_support() {
        let k = Epanechnikov::new(3);
        assert_eq!(k.density(&[1.0, 0.0, 0.0]), 0.0);
        assert_eq!(k.density(&[0.6, 0.6, 0.6]), 0.0);
        assert!(k.density(&[0.5, 0.5, 0.5]) > 0.0);
    }

    #[test]
    fn density_from_sq_radius_consistent() {
        let k = Epanechnikov::new(2);
        let t = [0.3, 0.4];
        let t2 = 0.25;
        assert!((k.density(&t) - k.density_from_sq_radius(t2)).abs() < 1e-15);
    }

    #[test]
    fn samples_stay_in_unit_ball() {
        let k = Epanechnikov::new(4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = [0.0; 4];
        for _ in 0..1000 {
            k.sample_into(&mut rng, &mut s);
            let r2: f64 = s.iter().map(|v| v * v).sum();
            assert!(r2 <= 1.0 + 1e-12, "sample outside unit ball: r² = {r2}");
        }
    }

    #[test]
    fn sample_mean_is_zero() {
        let k = Epanechnikov::new(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sums = [0.0_f64; 2];
        let mut s = [0.0; 2];
        let n = 20_000;
        for _ in 0..n {
            k.sample_into(&mut rng, &mut s);
            sums[0] += s[0];
            sums[1] += s[1];
        }
        assert!(sums[0].abs() / (n as f64) < 0.01);
        assert!(sums[1].abs() / (n as f64) < 0.01);
    }

    #[test]
    fn sample_1d_radial_distribution() {
        // In 1-d, variance of the Epanechnikov kernel is 1/5.
        let k = Epanechnikov::new(1);
        let mut rng = StdRng::seed_from_u64(19);
        let n = 50_000;
        let mut s = [0.0];
        let var: f64 = (0..n)
            .map(|_| {
                k.sample_into(&mut rng, &mut s);
                s[0] * s[0]
            })
            .sum::<f64>()
            / n as f64;
        assert!((var - 0.2).abs() < 0.01, "variance {var}");
    }

    /// The squeeze decides exactly as the `powf`-only test at every
    /// width up to 20: over 1.2·10⁶ `(r, u)` pairs per run — uniform `r`,
    /// `r` near the mode, `r` below 1e-6 down to 1e-300 — with `u`
    /// uniform or placed on the acceptance boundary at relative offsets
    /// from 1e-16 to 1e-10, just inside and just outside the margin.
    #[test]
    fn squeeze_decisions_match_the_powf_test() {
        let mut rng = StdRng::seed_from_u64(2014);
        let offsets = [
            0.0, 1e-16, -1e-16, 1e-14, -1e-14, 9e-13, -9e-13, 1.01e-12, -1.01e-12, 2e-12, -2e-12,
            1e-10, -1e-10,
        ];
        let (mut cheap, mut fallback) = (0_usize, 0_usize);
        for dim in 1..=20 {
            let k = Epanechnikov::new(dim);
            let d = dim as f64;
            let mode = ((d - 1.0) / (d + 1.0)).sqrt();
            for case in 0..60_000 {
                // Every r regime meets both u modes.
                let r = match (case / 2) % 3 {
                    0 => rng.random::<f64>(),
                    1 => (mode + (rng.random::<f64>() - 0.5) * 1e-3).clamp(0.0, 1.0 - 1e-16),
                    _ => 10f64.powf(-6.0 - 294.0 * rng.random::<f64>()),
                };
                let f = r.powf(d - 1.0) * (1.0 - r * r);
                let u = if case % 2 == 0 {
                    rng.random::<f64>()
                } else {
                    let off = offsets[(case / 6) % offsets.len()];
                    (f * (1.0 + off) / k.f_max).min(1.0 - f64::EPSILON)
                };
                let want = u * k.f_max <= f;
                assert_eq!(k.accepts(r, u), want, "d={dim} r={r:e} u={u:e}");
                let c = r.powi(dim as i32 - 1) * (1.0 - r * r);
                if c >= SQUEEZE_FLOOR && (u * k.f_max - c).abs() > SQUEEZE_MARGIN * c {
                    cheap += 1;
                } else {
                    fallback += 1;
                }
            }
        }
        // Both paths ran: most pairs decide cheaply, boundary and tiny-r
        // pairs fall back.
        assert!(
            cheap > 500_000 && fallback > 100_000,
            "{cheap} / {fallback}"
        );
    }

    #[test]
    #[should_panic(expected = "dim >= 1")]
    fn zero_dim_panics() {
        let _ = Epanechnikov::new(0);
    }
}
