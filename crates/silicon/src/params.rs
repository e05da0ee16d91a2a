//! The process-parameter vector and its latent-factor structure.
//!
//! A die's electrical personality is captured by nine physical parameters
//! (a deliberately compact but realistic set for a 350 nm CMOS + analog
//! process). Parameters are not independent: they load onto five latent
//! *process factors* (oxide growth, n/p implant doses, lithography, and the
//! back-end passives module), which is what makes PCMs informative about
//! design-specific behaviour — both respond to the same factors.

use std::fmt;

/// Latent process factors driving correlated parameter variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessFactor {
    /// Gate-oxide growth (affects both device polarities and mobility).
    Oxide,
    /// NMOS channel implant dose.
    ImplantN,
    /// PMOS channel implant dose.
    ImplantP,
    /// Lithography / etch critical dimension.
    Litho,
    /// Back-end-of-line passives (resistors, capacitors, inductors).
    Beol,
}

impl ProcessFactor {
    /// All factors, in canonical order.
    pub const ALL: [ProcessFactor; 5] = [
        ProcessFactor::Oxide,
        ProcessFactor::ImplantN,
        ProcessFactor::ImplantP,
        ProcessFactor::Litho,
        ProcessFactor::Beol,
    ];

    /// Index of this factor in [`ProcessFactor::ALL`].
    pub fn index(self) -> usize {
        match self {
            ProcessFactor::Oxide => 0,
            ProcessFactor::ImplantN => 1,
            ProcessFactor::ImplantP => 2,
            ProcessFactor::Litho => 3,
            ProcessFactor::Beol => 4,
        }
    }
}

impl fmt::Display for ProcessFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProcessFactor::Oxide => "oxide",
            ProcessFactor::ImplantN => "implant-n",
            ProcessFactor::ImplantP => "implant-p",
            ProcessFactor::Litho => "litho",
            ProcessFactor::Beol => "beol",
        };
        write!(f, "{name}")
    }
}

/// The physical process parameters of one die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessParameter {
    /// NMOS threshold voltage \[V\].
    VthN,
    /// PMOS threshold voltage magnitude \[V\].
    VthP,
    /// NMOS mobility, relative to nominal \[—\].
    MobilityN,
    /// PMOS mobility, relative to nominal \[—\].
    MobilityP,
    /// Drawn gate length \[µm\].
    GateLength,
    /// Gate oxide thickness \[nm\].
    OxideThickness,
    /// Analog sheet resistance, relative \[—\].
    AnalogRes,
    /// Analog capacitance, relative \[—\].
    AnalogCap,
    /// Analog (UWB) inductance, relative \[—\].
    AnalogInd,
}

impl ProcessParameter {
    /// All parameters, in canonical (storage) order.
    pub const ALL: [ProcessParameter; 9] = [
        ProcessParameter::VthN,
        ProcessParameter::VthP,
        ProcessParameter::MobilityN,
        ProcessParameter::MobilityP,
        ProcessParameter::GateLength,
        ProcessParameter::OxideThickness,
        ProcessParameter::AnalogRes,
        ProcessParameter::AnalogCap,
        ProcessParameter::AnalogInd,
    ];

    /// Number of parameters.
    pub const COUNT: usize = 9;

    /// Index of this parameter in [`ProcessParameter::ALL`].
    pub fn index(self) -> usize {
        match self {
            ProcessParameter::VthN => 0,
            ProcessParameter::VthP => 1,
            ProcessParameter::MobilityN => 2,
            ProcessParameter::MobilityP => 3,
            ProcessParameter::GateLength => 4,
            ProcessParameter::OxideThickness => 5,
            ProcessParameter::AnalogRes => 6,
            ProcessParameter::AnalogCap => 7,
            ProcessParameter::AnalogInd => 8,
        }
    }

    /// Nominal (typical-corner) value in this parameter's physical unit.
    pub fn nominal(self) -> f64 {
        match self {
            ProcessParameter::VthN => 0.50,
            ProcessParameter::VthP => 0.65,
            ProcessParameter::MobilityN => 1.0,
            ProcessParameter::MobilityP => 1.0,
            ProcessParameter::GateLength => 0.35,
            ProcessParameter::OxideThickness => 7.6,
            ProcessParameter::AnalogRes => 1.0,
            ProcessParameter::AnalogCap => 1.0,
            ProcessParameter::AnalogInd => 1.0,
        }
    }

    /// One-sigma magnitude of the *systematic* (factor-driven) variation,
    /// in the parameter's physical unit.
    pub fn systematic_sigma(self) -> f64 {
        match self {
            ProcessParameter::VthN => 0.030,
            ProcessParameter::VthP => 0.035,
            ProcessParameter::MobilityN => 0.045,
            ProcessParameter::MobilityP => 0.045,
            ProcessParameter::GateLength => 0.010,
            ProcessParameter::OxideThickness => 0.15,
            // Passives are lithographically defined and far more stable
            // than the transistors.
            ProcessParameter::AnalogRes => 0.008,
            ProcessParameter::AnalogCap => 0.004,
            ProcessParameter::AnalogInd => 0.004,
        }
    }

    /// One-sigma magnitude of the *local* (uncorrelated mismatch)
    /// variation, in the parameter's physical unit.
    pub fn local_sigma(self) -> f64 {
        match self {
            ProcessParameter::VthN => 0.008,
            ProcessParameter::VthP => 0.009,
            ProcessParameter::MobilityN => 0.012,
            ProcessParameter::MobilityP => 0.012,
            ProcessParameter::GateLength => 0.003,
            ProcessParameter::OxideThickness => 0.04,
            ProcessParameter::AnalogRes => 0.003,
            ProcessParameter::AnalogCap => 0.002,
            ProcessParameter::AnalogInd => 0.002,
        }
    }

    /// Loadings of this parameter onto the latent factors (rows sum to 1 in
    /// squared magnitude so `systematic_sigma` is the total systematic σ).
    pub(crate) fn factor_loadings(self) -> &'static [(ProcessFactor, f64)] {
        use ProcessFactor::*;
        match self {
            ProcessParameter::VthN => &[(ImplantN, 0.80), (Oxide, 0.60)],
            ProcessParameter::VthP => &[(ImplantP, 0.80), (Oxide, 0.60)],
            // Higher implant dose raises Vth but degrades mobility
            // (impurity scattering), hence the negative loadings.
            ProcessParameter::MobilityN => &[(Oxide, 0.70), (ImplantN, -0.714)],
            ProcessParameter::MobilityP => &[(Oxide, 0.70), (ImplantP, -0.714)],
            ProcessParameter::GateLength => &[(Litho, 1.0)],
            ProcessParameter::OxideThickness => &[(Oxide, 1.0)],
            ProcessParameter::AnalogRes => &[(Beol, 0.90), (Litho, 0.436)],
            ProcessParameter::AnalogCap => &[(Beol, 0.85), (Oxide, 0.527)],
            ProcessParameter::AnalogInd => &[(Beol, 1.0)],
        }
    }

    /// Direction of the parameter's response to a positive factor
    /// excursion, per loading (+1: parameter increases). Encoded in the
    /// loading sign — this helper documents the convention.
    pub fn unit(self) -> &'static str {
        match self {
            ProcessParameter::VthN | ProcessParameter::VthP => "V",
            ProcessParameter::GateLength => "um",
            ProcessParameter::OxideThickness => "nm",
            _ => "rel",
        }
    }
}

impl fmt::Display for ProcessParameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProcessParameter::VthN => "vth_n",
            ProcessParameter::VthP => "vth_p",
            ProcessParameter::MobilityN => "mobility_n",
            ProcessParameter::MobilityP => "mobility_p",
            ProcessParameter::GateLength => "gate_length",
            ProcessParameter::OxideThickness => "oxide_thickness",
            ProcessParameter::AnalogRes => "analog_res",
            ProcessParameter::AnalogCap => "analog_cap",
            ProcessParameter::AnalogInd => "analog_ind",
        };
        write!(f, "{name}")
    }
}

/// The realized process parameters of a single die.
///
/// # Example
///
/// ```
/// use sidefp_silicon::params::{ProcessParameter, ProcessPoint};
///
/// let p = ProcessPoint::nominal();
/// assert_eq!(p.get(ProcessParameter::VthN), 0.50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessPoint {
    values: [f64; ProcessParameter::COUNT],
}

impl ProcessPoint {
    /// The typical-corner point: every parameter at its nominal value.
    pub fn nominal() -> Self {
        let mut values = [0.0; ProcessParameter::COUNT];
        for p in ProcessParameter::ALL {
            values[p.index()] = p.nominal();
        }
        ProcessPoint { values }
    }

    /// Builds a point from factor excursions (in sigma units) plus local
    /// mismatch excursions (in sigma units, one per parameter).
    ///
    /// `factors[k]` is the excursion of `ProcessFactor::ALL[k]`.
    pub fn from_factors(factors: &[f64; 5], local: &[f64; ProcessParameter::COUNT]) -> Self {
        let mut values = [0.0; ProcessParameter::COUNT];
        for p in ProcessParameter::ALL {
            let mut systematic = 0.0;
            for (factor, loading) in p.factor_loadings() {
                systematic += loading * factors[factor.index()];
            }
            // Normalize so full loading magnitude maps to systematic_sigma.
            let loading_norm: f64 = p
                .factor_loadings()
                .iter()
                .map(|(_, l)| l * l)
                .sum::<f64>()
                .sqrt();
            let sys_scale = if loading_norm > 0.0 {
                p.systematic_sigma() / loading_norm
            } else {
                0.0
            };
            values[p.index()] =
                p.nominal() + systematic * sys_scale + local[p.index()] * p.local_sigma();
        }
        ProcessPoint { values }
    }

    /// Value of a parameter.
    pub fn get(&self, parameter: ProcessParameter) -> f64 {
        self.values[parameter.index()]
    }

    /// Sets a parameter (used by tests and what-if analyses).
    pub fn set(&mut self, parameter: ProcessParameter, value: f64) {
        self.values[parameter.index()] = value;
    }

    /// All values in [`ProcessParameter::ALL`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Deviation of each parameter from nominal, in units of its total
    /// (systematic + local, RSS) sigma.
    pub fn sigma_deviations(&self) -> [f64; ProcessParameter::COUNT] {
        let mut out = [0.0; ProcessParameter::COUNT];
        for p in ProcessParameter::ALL {
            let total_sigma = (p.systematic_sigma().powi(2) + p.local_sigma().powi(2)).sqrt();
            out[p.index()] = (self.get(p) - p.nominal()) / total_sigma;
        }
        out
    }
}

impl Default for ProcessPoint {
    fn default() -> Self {
        ProcessPoint::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_roundtrips() {
        for (i, p) in ProcessParameter::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, f) in ProcessFactor::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn nominal_point_matches_parameter_nominals() {
        let p = ProcessPoint::nominal();
        for param in ProcessParameter::ALL {
            assert_eq!(p.get(param), param.nominal());
        }
        assert_eq!(ProcessPoint::default(), p);
    }

    #[test]
    fn factor_loadings_are_normalized() {
        // Squared loadings should sum to ~1 so systematic_sigma is total.
        for p in ProcessParameter::ALL {
            let sum: f64 = p.factor_loadings().iter().map(|(_, l)| l * l).sum();
            assert!(
                (sum - 1.0).abs() < 0.02,
                "{p}: squared loadings sum to {sum}"
            );
        }
    }

    #[test]
    fn zero_excursion_is_nominal() {
        let p = ProcessPoint::from_factors(&[0.0; 5], &[0.0; 9]);
        assert_eq!(p, ProcessPoint::nominal());
    }

    #[test]
    fn one_sigma_factor_moves_parameter_about_one_sigma() {
        // Pure litho excursion → gate length moves exactly 1 systematic σ.
        let mut factors = [0.0; 5];
        factors[ProcessFactor::Litho.index()] = 1.0;
        let p = ProcessPoint::from_factors(&factors, &[0.0; 9]);
        let gl = ProcessParameter::GateLength;
        let moved = p.get(gl) - gl.nominal();
        assert!((moved - gl.systematic_sigma()).abs() < 1e-12);
    }

    #[test]
    fn correlated_parameters_share_factors() {
        // An oxide excursion moves both Vth polarities the same direction.
        let mut factors = [0.0; 5];
        factors[ProcessFactor::Oxide.index()] = 2.0;
        let p = ProcessPoint::from_factors(&factors, &[0.0; 9]);
        assert!(p.get(ProcessParameter::VthN) > ProcessParameter::VthN.nominal());
        assert!(p.get(ProcessParameter::VthP) > ProcessParameter::VthP.nominal());
        assert!(
            p.get(ProcessParameter::OxideThickness) > ProcessParameter::OxideThickness.nominal()
        );
    }

    #[test]
    fn local_mismatch_is_independent_per_parameter() {
        let mut local = [0.0; 9];
        local[ProcessParameter::VthN.index()] = 1.0;
        let p = ProcessPoint::from_factors(&[0.0; 5], &local);
        assert!(
            (p.get(ProcessParameter::VthN)
                - ProcessParameter::VthN.nominal()
                - ProcessParameter::VthN.local_sigma())
            .abs()
                < 1e-12
        );
        // Other parameters untouched.
        assert_eq!(
            p.get(ProcessParameter::VthP),
            ProcessParameter::VthP.nominal()
        );
    }

    #[test]
    fn sigma_deviations_of_nominal_are_zero() {
        let devs = ProcessPoint::nominal().sigma_deviations();
        assert!(devs.iter().all(|d| d.abs() < 1e-12));
    }

    #[test]
    fn set_and_get() {
        let mut p = ProcessPoint::nominal();
        p.set(ProcessParameter::MobilityN, 1.1);
        assert_eq!(p.get(ProcessParameter::MobilityN), 1.1);
        assert_eq!(p.as_slice().len(), 9);
    }

    #[test]
    fn display_names_are_snake_case() {
        assert_eq!(ProcessParameter::VthN.to_string(), "vth_n");
        assert_eq!(ProcessFactor::ImplantP.to_string(), "implant-p");
        assert_eq!(ProcessParameter::GateLength.unit(), "um");
        assert_eq!(ProcessParameter::AnalogInd.unit(), "rel");
    }
}
