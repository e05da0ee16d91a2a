//! The foundry: an operating point (possibly shifted from the simulation
//! model), a variation model, and fabrication of lots/wafers/dies.

use rand::Rng;
use sidefp_stats::MultivariateNormal;

use crate::params::{ProcessFactor, ProcessParameter, ProcessPoint};
use crate::variation::VariationModel;
use crate::wafer::{DiePosition, WaferMap};
use crate::SiliconError;

/// A systematic shift of the foundry's operating point, expressed in sigma
/// units per latent factor.
///
/// The paper's central obstacle is exactly this shift: "Spice models are
/// updated infrequently, there is bound to be a discrepancy between the
/// statistics of the simulation model and the actual statistics produced by
/// the foundry process" (§1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcessShift {
    offsets: [f64; 5],
}

impl ProcessShift {
    /// No shift: the simulation model's own operating point.
    pub fn none() -> Self {
        ProcessShift::default()
    }

    /// The same shift (in sigma) applied to every factor.
    pub fn uniform(sigma: f64) -> Self {
        ProcessShift {
            offsets: [sigma; 5],
        }
    }

    /// A shift on a single factor.
    pub fn on_factor(factor: ProcessFactor, sigma: f64) -> Self {
        let mut offsets = [0.0; 5];
        offsets[factor.index()] = sigma;
        ProcessShift { offsets }
    }

    /// Builder-style: adds a shift on one more factor.
    pub fn and(mut self, factor: ProcessFactor, sigma: f64) -> Self {
        self.offsets[factor.index()] += sigma;
        self
    }

    /// Offset of one factor in sigma units.
    pub fn offset(&self, factor: ProcessFactor) -> f64 {
        self.offsets[factor.index()]
    }

    /// Root-sum-square magnitude of the shift across factors.
    pub fn magnitude(&self) -> f64 {
        self.offsets.iter().map(|o| o * o).sum::<f64>().sqrt()
    }
}

/// A fabricated die: its wafer position and realized process parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Die {
    position: DiePosition,
    process: ProcessPoint,
    /// Process parameters at the adjacent kerf PCM site (tracks the die
    /// with a small gradient-induced offset).
    kerf_process: ProcessPoint,
}

impl Die {
    /// Wafer position of the die.
    pub fn position(&self) -> DiePosition {
        self.position
    }

    /// Process parameters realized on the die itself.
    pub fn process(&self) -> &ProcessPoint {
        &self.process
    }

    /// Process parameters at the adjacent kerf (scribe-line) PCM site.
    pub fn kerf_process(&self) -> &ProcessPoint {
        &self.kerf_process
    }
}

/// A foundry with an operating point and a variation model.
///
/// Two foundries with the same variation model but different shifts are the
/// paper's "trusted simulation model" and "actual fab".
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct Foundry {
    shift: ProcessShift,
    variation: VariationModel,
    sigma_scale: f64,
}

impl Foundry {
    /// The unshifted foundry — i.e. the trusted simulation model's view of
    /// the process.
    pub fn nominal() -> Self {
        Foundry {
            shift: ProcessShift::none(),
            variation: VariationModel::default(),
            sigma_scale: 1.0,
        }
    }

    /// A foundry whose operating point has drifted by `shift`.
    pub fn with_shift(shift: ProcessShift) -> Self {
        Foundry {
            shift,
            variation: VariationModel::default(),
            sigma_scale: 1.0,
        }
    }

    /// Full constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] if the variation model's
    /// shares are invalid.
    pub fn new(shift: ProcessShift, variation: VariationModel) -> Result<Self, SiliconError> {
        variation.validate()?;
        Ok(Foundry {
            shift,
            variation,
            sigma_scale: 1.0,
        })
    }

    /// Scales every variation magnitude (systematic and local) by `scale`.
    ///
    /// A stale or optimistic SPICE model typically *understates* the true
    /// process spread; modeling the "trusted simulation model" as a foundry
    /// with `sigma_scale < 1` reproduces that (paper §1: "Spice models are
    /// updated infrequently").
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] for non-positive scales.
    pub fn with_sigma_scale(mut self, scale: f64) -> Result<Self, SiliconError> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(SiliconError::InvalidParameter {
                name: "sigma_scale",
                reason: format!("must be positive and finite, got {scale}"),
            });
        }
        self.sigma_scale = scale;
        Ok(self)
    }

    /// The operating-point shift.
    pub fn shift(&self) -> ProcessShift {
        self.shift
    }

    /// The variation model.
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// Fabricates a single die at a random position of a fresh lot/wafer.
    ///
    /// Convenience for Monte Carlo simulation, where each sample is an
    /// independent virtual die.
    pub fn fabricate_die<R: Rng>(&self, rng: &mut R) -> Die {
        let lot = self.variation.sample_lot(rng);
        let wafer = self.variation.sample_wafer(rng);
        let position = DiePosition::random(rng);
        self.realize_die(rng, &lot, &wafer, position)
    }

    /// Fabricates a full lot: `wafers` wafers using the given wafer map.
    ///
    /// Dies from the same lot/wafer share lot/wafer-level variation — this
    /// is what makes a single-lot DUTT population narrow relative to the
    /// full process distribution (paper §2.2).
    pub fn fabricate_lot<R: Rng>(&self, rng: &mut R, wafers: usize, map: &WaferMap) -> Vec<Die> {
        let lot = self.variation.sample_lot(rng);
        let mut dies = Vec::with_capacity(wafers * map.len());
        for _ in 0..wafers {
            let wafer = self.variation.sample_wafer(rng);
            for &position in map.positions() {
                dies.push(self.realize_die(rng, &lot, &wafer, position));
            }
        }
        dies
    }

    fn realize_die<R: Rng>(
        &self,
        rng: &mut R,
        lot: &crate::variation::LotState,
        wafer: &crate::variation::WaferState,
        position: DiePosition,
    ) -> Die {
        let mut factors = self.variation.die_factors(rng, lot, wafer, position);
        for (k, f) in factors.iter_mut().enumerate() {
            *f = *f * self.sigma_scale + self.shift.offsets[k];
        }
        let mut local = [0.0; ProcessParameter::COUNT];
        for l in &mut local {
            *l = MultivariateNormal::standard_normal(rng) * self.sigma_scale;
        }
        let process = ProcessPoint::from_factors(&factors, &local);

        // The kerf site shares the die's systematic factors but has its own
        // local mismatch (it is a different physical structure).
        let mut kerf_local = [0.0; ProcessParameter::COUNT];
        for l in &mut kerf_local {
            *l = MultivariateNormal::standard_normal(rng) * self.sigma_scale;
        }
        let kerf_process = ProcessPoint::from_factors(&factors, &kerf_local);

        Die {
            position,
            process,
            kerf_process,
        }
    }
}

impl Default for Foundry {
    fn default() -> Self {
        Foundry::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_stats::descriptive;

    #[test]
    fn shift_constructors() {
        assert_eq!(ProcessShift::none().magnitude(), 0.0);
        let u = ProcessShift::uniform(2.0);
        assert!((u.magnitude() - (4.0_f64 * 5.0).sqrt()).abs() < 1e-12);
        let s = ProcessShift::on_factor(ProcessFactor::Oxide, 1.5).and(ProcessFactor::Beol, -0.5);
        assert_eq!(s.offset(ProcessFactor::Oxide), 1.5);
        assert_eq!(s.offset(ProcessFactor::Beol), -0.5);
        assert_eq!(s.offset(ProcessFactor::Litho), 0.0);
    }

    #[test]
    fn nominal_foundry_centers_on_model() {
        let foundry = Foundry::nominal();
        let mut rng = StdRng::seed_from_u64(1);
        let vth: Vec<f64> = (0..2000)
            .map(|_| {
                foundry
                    .fabricate_die(&mut rng)
                    .process()
                    .get(ProcessParameter::VthN)
            })
            .collect();
        let mean = descriptive::mean(&vth).unwrap();
        assert!(
            (mean - ProcessParameter::VthN.nominal()).abs() < 0.003,
            "mean VthN {mean}"
        );
    }

    #[test]
    fn shifted_foundry_moves_parameters() {
        let shifted = Foundry::with_shift(ProcessShift::uniform(2.0));
        let mut rng = StdRng::seed_from_u64(2);
        let vth: Vec<f64> = (0..1000)
            .map(|_| {
                shifted
                    .fabricate_die(&mut rng)
                    .process()
                    .get(ProcessParameter::VthN)
            })
            .collect();
        let mean = descriptive::mean(&vth).unwrap();
        // 2σ uniform shift raises VthN by about 2 systematic sigmas
        // (loadings are positive for implant-n and oxide).
        assert!(
            mean > ProcessParameter::VthN.nominal() + ProcessParameter::VthN.systematic_sigma(),
            "mean VthN {mean} did not shift"
        );
    }

    #[test]
    fn kerf_tracks_die() {
        // Kerf parameters correlate strongly with die parameters across the
        // population (shared systematic factors, independent local).
        let foundry = Foundry::nominal();
        let mut rng = StdRng::seed_from_u64(3);
        let mut die_v = Vec::new();
        let mut kerf_v = Vec::new();
        for _ in 0..800 {
            let die = foundry.fabricate_die(&mut rng);
            die_v.push(die.process().get(ProcessParameter::VthN));
            kerf_v.push(die.kerf_process().get(ProcessParameter::VthN));
        }
        let r = descriptive::pearson_correlation(&die_v, &kerf_v).unwrap();
        assert!(r > 0.85, "die/kerf correlation {r}");
    }

    #[test]
    fn lot_population_is_narrower_than_process() {
        let foundry = Foundry::nominal();
        let mut rng = StdRng::seed_from_u64(4);
        // One lot, two wafers.
        let map = WaferMap::grid(5);
        let lot_dies = foundry.fabricate_lot(&mut rng, 2, &map);
        let lot_vth: Vec<f64> = lot_dies
            .iter()
            .map(|d| d.process().get(ProcessParameter::VthN))
            .collect();
        // Full process spread from independent dies.
        let full_vth: Vec<f64> = (0..lot_dies.len())
            .map(|_| {
                foundry
                    .fabricate_die(&mut rng)
                    .process()
                    .get(ProcessParameter::VthN)
            })
            .collect();
        let lot_sd = descriptive::std_dev(&lot_vth).unwrap();
        let full_sd = descriptive::std_dev(&full_vth).unwrap();
        assert!(
            lot_sd < full_sd,
            "lot sd {lot_sd} not narrower than process sd {full_sd}"
        );
    }

    #[test]
    fn new_validates_variation() {
        let bad = VariationModel {
            lot: 0.9,
            wafer: 0.9,
            spatial: 0.0,
            die: 0.0,
        };
        assert!(Foundry::new(ProcessShift::none(), bad).is_err());
        assert_eq!(Foundry::default(), Foundry::nominal());
    }

    #[test]
    fn accessors() {
        let f = Foundry::with_shift(ProcessShift::uniform(1.0));
        assert_eq!(f.shift().offset(ProcessFactor::Oxide), 1.0);
        f.variation().validate().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let die = f.fabricate_die(&mut rng);
        assert!(die.position().radius() <= 1.0);
    }
}
