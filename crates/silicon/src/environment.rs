//! Operating environment of a measurement: junction temperature and supply
//! voltage.
//!
//! Side-channel fingerprinting implicitly assumes the tester measures under
//! the same conditions the trusted simulation assumed. This module makes
//! the assumption explicit and breakable: device models accept an
//! [`Environment`], so experiments can quantify what a temperature or
//! supply mismatch between simulation and test floor does to the trusted
//! boundaries.

use crate::SiliconError;

/// Nominal junction temperature \[°C\].
pub const NOMINAL_TEMPERATURE_C: f64 = 25.0;

/// Nominal supply voltage of the 350 nm platform \[V\].
pub const NOMINAL_SUPPLY_V: f64 = 3.3;

/// Temperature coefficient of the threshold voltage \[V/°C\].
const VTH_TEMPCO: f64 = -0.001;

/// Mobility temperature exponent (`μ ∝ T^-1.5`, T in Kelvin).
const MOBILITY_EXPONENT: f64 = -1.5;

/// Measurement conditions.
///
/// # Example
///
/// ```
/// use sidefp_silicon::environment::Environment;
///
/// let hot = Environment::at_temperature(85.0)?;
/// assert!(hot.mobility_factor() < 1.0); // phonon scattering
/// assert!(hot.vth_shift() < 0.0);       // threshold drops when hot
/// # Ok::<(), sidefp_silicon::SiliconError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    temperature_c: f64,
    supply_v: f64,
}

impl Environment {
    /// The nominal environment: 25 °C, 3.3 V.
    pub fn nominal() -> Self {
        Environment {
            temperature_c: NOMINAL_TEMPERATURE_C,
            supply_v: NOMINAL_SUPPLY_V,
        }
    }

    /// Builds an environment with explicit temperature and supply.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] for temperatures outside
    /// \[−55, 150\] °C or supplies outside \[1.0, 5.0\] V (the platform's
    /// physical operating range).
    pub fn new(temperature_c: f64, supply_v: f64) -> Result<Self, SiliconError> {
        if !(-55.0..=150.0).contains(&temperature_c) {
            return Err(SiliconError::InvalidParameter {
                name: "temperature_c",
                reason: format!("must be in [-55, 150] C, got {temperature_c}"),
            });
        }
        if !(1.0..=5.0).contains(&supply_v) {
            return Err(SiliconError::InvalidParameter {
                name: "supply_v",
                reason: format!("must be in [1.0, 5.0] V, got {supply_v}"),
            });
        }
        Ok(Environment {
            temperature_c,
            supply_v,
        })
    }

    /// Nominal supply at the given temperature.
    ///
    /// # Errors
    ///
    /// Same temperature bounds as [`Environment::new`].
    pub fn at_temperature(temperature_c: f64) -> Result<Self, SiliconError> {
        Environment::new(temperature_c, NOMINAL_SUPPLY_V)
    }

    /// Junction temperature \[°C\].
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Supply voltage \[V\].
    pub fn supply_v(&self) -> f64 {
        self.supply_v
    }

    /// Temperature in Kelvin.
    pub(crate) fn temperature_k(&self) -> f64 {
        self.temperature_c + 273.15
    }

    /// Additive threshold-voltage shift relative to 25 °C \[V\].
    pub fn vth_shift(&self) -> f64 {
        VTH_TEMPCO * (self.temperature_c - NOMINAL_TEMPERATURE_C)
    }

    /// Multiplicative mobility factor relative to 25 °C.
    pub fn mobility_factor(&self) -> f64 {
        (self.temperature_k() / (NOMINAL_TEMPERATURE_C + 273.15)).powf(MOBILITY_EXPONENT)
    }

    /// Thermal voltage `kT/q` at this temperature \[V\].
    pub fn thermal_voltage(&self) -> f64 {
        0.025_85 * self.temperature_k() / 298.15
    }
}

impl Default for Environment {
    fn default() -> Self {
        Environment::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_identity() {
        let e = Environment::nominal();
        assert_eq!(e.temperature_c(), 25.0);
        assert_eq!(e.supply_v(), 3.3);
        assert_eq!(e.vth_shift(), 0.0);
        assert!((e.mobility_factor() - 1.0).abs() < 1e-12);
        assert!((e.thermal_voltage() - 0.025_85).abs() < 1e-6);
        assert_eq!(Environment::default(), e);
    }

    #[test]
    fn hot_environment_physics() {
        let hot = Environment::at_temperature(125.0).unwrap();
        assert!((hot.vth_shift() + 0.1).abs() < 1e-12); // -100 mV
        assert!(hot.mobility_factor() < 0.7);
        assert!(hot.thermal_voltage() > 0.03);
        assert!((hot.temperature_k() - 398.15).abs() < 1e-9);
    }

    #[test]
    fn cold_environment_physics() {
        let cold = Environment::at_temperature(-40.0).unwrap();
        assert!(cold.vth_shift() > 0.05);
        assert!(cold.mobility_factor() > 1.0);
    }

    #[test]
    fn bounds_are_enforced() {
        assert!(Environment::at_temperature(-100.0).is_err());
        assert!(Environment::at_temperature(200.0).is_err());
        assert!(Environment::new(25.0, 0.5).is_err());
        assert!(Environment::new(25.0, 6.0).is_err());
        assert!(Environment::new(85.0, 3.0).is_ok());
    }
}
