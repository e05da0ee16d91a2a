//! Hierarchical process-variation model.
//!
//! Each latent factor's per-die excursion decomposes into lot, wafer,
//! within-wafer spatial, and die-random contributions whose squared weights
//! sum to one, so a factor is always a standard normal *in aggregate* while
//! dies from the same lot/wafer stay correlated — matching how real fabs
//! behave and why the paper worries that a small DUTT sample "may be
//! centered at the mean values or reflect only a narrow portion of the
//! distribution" (§2.2).

use rand::Rng;
use sidefp_stats::MultivariateNormal;

use crate::wafer::DiePosition;
use crate::SiliconError;

/// Share of each hierarchy level in the total factor variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Lot-to-lot variance share.
    pub lot: f64,
    /// Wafer-to-wafer share (within lot).
    pub wafer: f64,
    /// Within-wafer systematic (spatial) share.
    pub spatial: f64,
    /// Die-random share.
    pub die: f64,
}

impl Default for VariationModel {
    /// A lot-dominated split (typical for a mature node): most variance is
    /// lot/wafer level, making a single-lot DUTT population markedly
    /// narrower than the full process distribution (paper §2.2).
    fn default() -> Self {
        VariationModel {
            lot: 0.65,
            wafer: 0.12,
            spatial: 0.12,
            die: 0.11,
        }
    }
}

impl VariationModel {
    /// Validates that shares are non-negative and sum to 1 (±1e-6).
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), SiliconError> {
        let parts = [self.lot, self.wafer, self.spatial, self.die];
        if parts.iter().any(|p| *p < 0.0) {
            return Err(SiliconError::InvalidParameter {
                name: "variation shares",
                reason: "all shares must be non-negative".into(),
            });
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(SiliconError::InvalidParameter {
                name: "variation shares",
                reason: format!("shares must sum to 1, got {sum}"),
            });
        }
        Ok(())
    }
}

/// Per-lot random state: one excursion per factor.
#[derive(Debug, Clone, PartialEq)]
pub struct LotState {
    factors: [f64; 5],
}

/// Per-wafer random state: factor offsets plus a random radial gradient
/// describing the within-wafer systematic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferState {
    factors: [f64; 5],
    /// Radial gradient coefficient per factor (center-to-edge drift).
    radial: [f64; 5],
    /// Planar gradient direction per factor (x, y coefficients).
    planar: [(f64, f64); 5],
}

impl VariationModel {
    /// Draws a new lot's factor excursions.
    pub fn sample_lot<R: Rng>(&self, rng: &mut R) -> LotState {
        let mut factors = [0.0; 5];
        for f in &mut factors {
            *f = MultivariateNormal::standard_normal(rng);
        }
        LotState { factors }
    }

    /// Draws a new wafer's state within a lot.
    pub fn sample_wafer<R: Rng>(&self, rng: &mut R) -> WaferState {
        let mut factors = [0.0; 5];
        let mut radial = [0.0; 5];
        let mut planar = [(0.0, 0.0); 5];
        for k in 0..5 {
            factors[k] = MultivariateNormal::standard_normal(rng);
            // Split the spatial budget between a radial bowl and a tilt.
            radial[k] = MultivariateNormal::standard_normal(rng);
            let angle = rng.random::<f64>() * std::f64::consts::TAU;
            let mag = MultivariateNormal::standard_normal(rng);
            planar[k] = (mag * angle.cos(), mag * angle.sin());
        }
        WaferState {
            factors,
            radial,
            planar,
        }
    }

    /// Computes the total factor excursion for a die at `position` on a
    /// wafer from a lot, adding the die-random term.
    ///
    /// The spatial term evaluates the wafer's radial + planar gradients at
    /// the die position, normalized so its variance over the wafer is the
    /// `spatial` share.
    pub fn die_factors<R: Rng>(
        &self,
        rng: &mut R,
        lot: &LotState,
        wafer: &WaferState,
        position: DiePosition,
    ) -> [f64; 5] {
        let mut out = [0.0; 5];
        let (x, y) = position.normalized();
        let r2 = (x * x + y * y).min(1.0);
        #[allow(clippy::needless_range_loop)]
        for k in 0..5 {
            // Radial bowl: zero-mean over the wafer for uniform die placement
            // (E[r²] = 1/2 on the unit disk), tilt: zero-mean by symmetry.
            let bowl = wafer.radial[k] * (r2 - 0.5) * 2.0;
            let tilt = wafer.planar[k].0 * x + wafer.planar[k].1 * y;
            // The combined spatial pattern has O(1) variance; fold into the
            // spatial share. (0.5 normalizes the bowl+tilt mixture.)
            let spatial = (bowl + tilt) * 0.5_f64.sqrt();
            let die_random = MultivariateNormal::standard_normal(rng);
            out[k] = self.lot.sqrt() * lot.factors[k]
                + self.wafer.sqrt() * wafer.factors[k]
                + self.spatial.sqrt() * spatial
                + self.die.sqrt() * die_random;
        }
        out
    }
}

impl LotState {
    /// Factor excursions of this lot (sigma units, unscaled by shares).
    pub fn factors(&self) -> &[f64; 5] {
        &self.factors
    }
}

impl WaferState {
    /// Factor excursions of this wafer (sigma units, unscaled by shares).
    pub fn factors(&self) -> &[f64; 5] {
        &self.factors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wafer::DiePosition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_model_is_valid() {
        VariationModel::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_shares() {
        let bad = VariationModel {
            lot: -0.1,
            wafer: 0.4,
            spatial: 0.35,
            die: 0.35,
        };
        assert!(bad.validate().is_err());
        let not_one = VariationModel {
            lot: 0.5,
            wafer: 0.5,
            spatial: 0.5,
            die: 0.5,
        };
        assert!(not_one.validate().is_err());
    }

    #[test]
    fn aggregate_factor_variance_is_about_one() {
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples = Vec::new();
        for _ in 0..300 {
            let lot = model.sample_lot(&mut rng);
            let wafer = model.sample_wafer(&mut rng);
            for _ in 0..10 {
                let pos = DiePosition::random(&mut rng);
                let f = model.die_factors(&mut rng, &lot, &wafer, pos);
                samples.push(f[0]);
            }
        }
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.25, "variance {var}");
    }

    #[test]
    fn same_wafer_dies_are_correlated() {
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        // Correlation across many wafers between two dies of the same wafer.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..400 {
            let lot = model.sample_lot(&mut rng);
            let wafer = model.sample_wafer(&mut rng);
            let p1 = DiePosition::new(0.2, 0.1);
            let p2 = DiePosition::new(-0.1, 0.3);
            a.push(model.die_factors(&mut rng, &lot, &wafer, p1)[0]);
            b.push(model.die_factors(&mut rng, &lot, &wafer, p2)[0]);
        }
        let r = sidefp_stats::descriptive::pearson_correlation(&a, &b).unwrap();
        // lot + wafer shares = 0.77, plus partially shared spatial pattern
        // → strong same-wafer correlation.
        assert!(r > 0.6 && r < 0.97, "same-wafer correlation {r}");
    }

    #[test]
    fn different_lot_dies_are_nearly_uncorrelated() {
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..400 {
            let lot1 = model.sample_lot(&mut rng);
            let wafer1 = model.sample_wafer(&mut rng);
            let lot2 = model.sample_lot(&mut rng);
            let wafer2 = model.sample_wafer(&mut rng);
            let pos = DiePosition::new(0.0, 0.0);
            a.push(model.die_factors(&mut rng, &lot1, &wafer1, pos)[0]);
            b.push(model.die_factors(&mut rng, &lot2, &wafer2, pos)[0]);
        }
        let r = sidefp_stats::descriptive::pearson_correlation(&a, &b).unwrap();
        assert!(r.abs() < 0.15, "cross-lot correlation {r}");
    }

    #[test]
    fn spatial_gradient_differs_across_positions() {
        // With all variance in the spatial term, center and edge differ
        // deterministically given the same RNG state for the die-random
        // term (which has zero weight here).
        let model = VariationModel {
            lot: 0.0,
            wafer: 0.0,
            spatial: 1.0,
            die: 0.0,
        };
        model.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let lot = model.sample_lot(&mut rng);
        let wafer = model.sample_wafer(&mut rng);
        let center = model.die_factors(&mut rng, &lot, &wafer, DiePosition::new(0.0, 0.0));
        let edge = model.die_factors(&mut rng, &lot, &wafer, DiePosition::new(0.9, 0.0));
        assert!(
            (center[0] - edge[0]).abs() > 1e-6,
            "spatial pattern is flat"
        );
    }

    #[test]
    fn states_expose_factors() {
        let model = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let lot = model.sample_lot(&mut rng);
        let wafer = model.sample_wafer(&mut rng);
        assert_eq!(lot.factors().len(), 5);
        assert_eq!(wafer.factors().len(), 5);
    }
}
