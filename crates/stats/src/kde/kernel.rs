use rand::Rng;

use crate::MultivariateNormal;

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
        Epanechnikov {
            dim,
            normalization: 0.5 * (dim as f64 + 2.0) / c_d,
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

    /// Draws a random offset distributed according to the kernel.
    ///
    /// Direction: uniform on the `d`-sphere (normalized Gaussian).
    /// Radius: rejection sampling from the marginal `∝ r^{d−1}(1 − r²)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        let d = self.dim as f64;
        // Mode of the radial density, for the rejection envelope.
        let r_mode = if self.dim == 1 {
            // r^0 (1 - r^2) is maximal at r = 0.
            0.0
        } else {
            ((d - 1.0) / (d + 1.0)).sqrt()
        };
        let f_max = r_mode.powf(d - 1.0).max(f64::MIN_POSITIVE) * (1.0 - r_mode * r_mode);
        let f_max = if self.dim == 1 { 1.0 } else { f_max };

        let radius = loop {
            let r: f64 = rng.random::<f64>();
            let f = r.powf(d - 1.0) * (1.0 - r * r);
            if rng.random::<f64>() * f_max <= f {
                break r;
            }
        };

        // Uniform direction.
        let mut dir: Vec<f64> = (0..self.dim)
            .map(|_| MultivariateNormal::standard_normal(rng))
            .collect();
        let norm: f64 = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < f64::MIN_POSITIVE {
            // Astronomically unlikely; return the origin.
            return vec![0.0; self.dim];
        }
        for v in &mut dir {
            *v *= radius / norm;
        }
        dir
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
        for _ in 0..1000 {
            let s = k.sample(&mut rng);
            let r2: f64 = s.iter().map(|v| v * v).sum();
            assert!(r2 <= 1.0 + 1e-12, "sample outside unit ball: r² = {r2}");
        }
    }

    #[test]
    fn sample_mean_is_zero() {
        let k = Epanechnikov::new(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sums = [0.0_f64; 2];
        let n = 20_000;
        for _ in 0..n {
            let s = k.sample(&mut rng);
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
        let var: f64 = (0..n)
            .map(|_| {
                let s = k.sample(&mut rng)[0];
                s * s
            })
            .sum::<f64>()
            / n as f64;
        assert!((var - 0.2).abs() < 0.01, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "dim >= 1")]
    fn zero_dim_panics() {
        let _ = Epanechnikov::new(0);
    }
}
