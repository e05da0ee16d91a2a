//! Process control monitors (e-tests).
//!
//! Simple structures on the wafer kerf or die that measure fundamental
//! process parameters. They are shared across every design on the node,
//! scrutinized by process engineers for yield learning, and functionally
//! independent of any particular product — the combination that makes them
//! the paper's "core root of trust" replacing golden chips.

use rand::Rng;
use sidefp_stats::MultivariateNormal;

use crate::device_models;
use crate::environment::Environment;
use crate::params::ProcessPoint;
use crate::SiliconError;

/// The PCM structure types the synthetic fab provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PcmKind {
    /// Delay through a canonical digital path (inverter chain) \[ns\].
    /// This is the paper's choice: "a delay measurement on a simple digital
    /// path, which we included on our chip for silicon characterization
    /// purposes" (§3.1).
    PathDelay,
    /// Ring-oscillator frequency \[MHz\].
    RingOscillator,
    /// Subthreshold leakage of a monitor transistor \[µA\].
    LeakageCurrent,
    /// Extracted NMOS threshold voltage \[V\].
    VthMonitor,
    /// Kerf MOS capacitor: gate-oxide capacitance relative to nominal \[—\].
    CapacitorMonitor,
}

impl PcmKind {
    /// All monitor kinds, in canonical order.
    pub const ALL: [PcmKind; 5] = [
        PcmKind::PathDelay,
        PcmKind::RingOscillator,
        PcmKind::LeakageCurrent,
        PcmKind::VthMonitor,
        PcmKind::CapacitorMonitor,
    ];

    /// Number of inverter stages in the path-delay monitor.
    const PATH_STAGES: f64 = 64.0;
    /// Stage count of the ring oscillator (odd).
    const RO_STAGES: usize = 31;

    /// Ideal (noise-free) value of this monitor at a process point, in the
    /// nominal environment.
    pub fn ideal_value(&self, process: &ProcessPoint) -> f64 {
        self.ideal_value_at(process, &Environment::nominal())
    }

    /// Ideal value under explicit measurement conditions (e-test floors are
    /// temperature-controlled, but not always to the simulation's corner).
    pub(crate) fn ideal_value_at(&self, process: &ProcessPoint, env: &Environment) -> f64 {
        match self {
            PcmKind::PathDelay => device_models::gate_delay_at(process, env) * Self::PATH_STAGES,
            PcmKind::RingOscillator => {
                1000.0 / (2.0 * Self::RO_STAGES as f64 * device_models::gate_delay_at(process, env))
            }
            PcmKind::LeakageCurrent => device_models::subthreshold_leakage_at(process, env),
            PcmKind::VthMonitor => {
                process.get(crate::params::ProcessParameter::VthN) + env.vth_shift()
            }
            PcmKind::CapacitorMonitor => {
                crate::params::ProcessParameter::OxideThickness.nominal()
                    / process.get(crate::params::ProcessParameter::OxideThickness)
            }
        }
    }
}

/// An adversarial modification of the PCM structures (paper §1: "one might
/// argue that a resourceful and determined attacker can fiddle with the
/// PCMs, just like he/she would with the IC").
///
/// Modeled as a per-monitor multiplicative scale applied to every reading
/// — e.g. a foundry attacker re-sizing the monitor transistors so the
/// structures report a different operating point than the product devices
/// actually received.
///
/// # Example
///
/// ```
/// use sidefp_silicon::pcm::{PcmKind, PcmTamper};
///
/// let tamper = PcmTamper::uniform(0.95); // read 5 % fast
/// assert!((tamper.factor(PcmKind::PathDelay) - 0.95).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmTamper {
    scales: Vec<(PcmKind, f64)>,
}

impl PcmTamper {
    /// No modification.
    pub fn none() -> Self {
        PcmTamper { scales: Vec::new() }
    }

    /// The same multiplicative scale on every monitor.
    pub fn uniform(scale: f64) -> Self {
        PcmTamper {
            scales: PcmKind::ALL.iter().map(|k| (*k, scale)).collect(),
        }
    }

    /// A scale on a single monitor kind.
    pub fn on_kind(kind: PcmKind, scale: f64) -> Self {
        PcmTamper {
            scales: vec![(kind, scale)],
        }
    }

    /// Builder-style: adds a scale on one more monitor kind.
    pub fn and(mut self, kind: PcmKind, scale: f64) -> Self {
        self.scales.push((kind, scale));
        self
    }

    /// Multiplicative factor this tamper applies to a monitor's readings.
    pub fn factor(&self, kind: PcmKind) -> f64 {
        self.scales
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s)
            .product()
    }

    /// `true` if no monitor is modified.
    pub fn is_none(&self) -> bool {
        PcmKind::ALL
            .iter()
            .all(|k| (self.factor(*k) - 1.0).abs() < 1e-15)
    }
}

impl Default for PcmTamper {
    fn default() -> Self {
        PcmTamper::none()
    }
}

/// A suite of PCM structures with a common relative measurement-noise
/// level.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sidefp_silicon::params::ProcessPoint;
/// use sidefp_silicon::pcm::{PcmKind, PcmSuite};
///
/// # fn main() -> Result<(), sidefp_silicon::SiliconError> {
/// let suite = PcmSuite::new(vec![PcmKind::PathDelay, PcmKind::RingOscillator], 0.002)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let values = suite.measure(&ProcessPoint::nominal(), &mut rng);
/// assert_eq!(values.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmSuite {
    kinds: Vec<PcmKind>,
    noise_relative: f64,
}

impl PcmSuite {
    /// Creates a suite measuring the given monitors with multiplicative
    /// Gaussian measurement noise of the given relative sigma.
    ///
    /// # Errors
    ///
    /// - [`SiliconError::Empty`] for an empty kind list.
    /// - [`SiliconError::InvalidParameter`] for negative noise.
    pub fn new(kinds: Vec<PcmKind>, noise_relative: f64) -> Result<Self, SiliconError> {
        if kinds.is_empty() {
            return Err(SiliconError::Empty { what: "pcm kinds" });
        }
        if noise_relative < 0.0 || !noise_relative.is_finite() {
            return Err(SiliconError::InvalidParameter {
                name: "noise_relative",
                reason: format!("must be non-negative and finite, got {noise_relative}"),
            });
        }
        Ok(PcmSuite {
            kinds,
            noise_relative,
        })
    }

    /// The paper's configuration: a single path-delay monitor with typical
    /// e-test repeatability (0.2% relative).
    pub fn paper_default() -> Self {
        PcmSuite {
            kinds: vec![PcmKind::PathDelay],
            noise_relative: 0.002,
        }
    }

    /// Monitors in this suite.
    pub fn kinds(&self) -> &[PcmKind] {
        &self.kinds
    }

    /// Number of measurements this suite produces (`n_p` in the paper).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the suite has no monitors (impossible via [`PcmSuite::new`]).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Measures all monitors at a process point, adding measurement noise.
    pub fn measure<R: Rng>(&self, process: &ProcessPoint, rng: &mut R) -> Vec<f64> {
        self.measure_detailed(process, &Environment::nominal(), &PcmTamper::none(), rng)
    }

    /// Fully-specified measurement: explicit environment and tamper.
    pub fn measure_detailed<R: Rng>(
        &self,
        process: &ProcessPoint,
        env: &Environment,
        tamper: &PcmTamper,
        rng: &mut R,
    ) -> Vec<f64> {
        self.kinds
            .iter()
            .map(|k| {
                let ideal = k.ideal_value_at(process, env) * tamper.factor(*k);
                let noise = MultivariateNormal::standard_normal(rng) * self.noise_relative;
                ideal * (1.0 + noise)
            })
            .collect()
    }

    /// Noise-free measurement (for tests and what-if analyses).
    pub fn measure_ideal(&self, process: &ProcessPoint) -> Vec<f64> {
        self.kinds.iter().map(|k| k.ideal_value(process)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ProcessParameter, ProcessPoint};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_is_single_path_delay() {
        let suite = PcmSuite::paper_default();
        assert_eq!(suite.len(), 1);
        assert_eq!(suite.kinds()[0], PcmKind::PathDelay);
        assert!(!suite.is_empty());
    }

    #[test]
    fn path_delay_tracks_gate_delay() {
        let nominal = PcmKind::PathDelay.ideal_value(&ProcessPoint::nominal());
        let mut slow = ProcessPoint::nominal();
        slow.set(ProcessParameter::VthN, 0.58);
        slow.set(ProcessParameter::VthP, 0.73);
        assert!(PcmKind::PathDelay.ideal_value(&slow) > nominal);
    }

    #[test]
    fn ring_oscillator_anticorrelates_with_path_delay() {
        let mut slow = ProcessPoint::nominal();
        slow.set(ProcessParameter::MobilityN, 0.9);
        slow.set(ProcessParameter::MobilityP, 0.9);
        let d_nom = PcmKind::PathDelay.ideal_value(&ProcessPoint::nominal());
        let f_nom = PcmKind::RingOscillator.ideal_value(&ProcessPoint::nominal());
        assert!(PcmKind::PathDelay.ideal_value(&slow) > d_nom);
        assert!(PcmKind::RingOscillator.ideal_value(&slow) < f_nom);
    }

    #[test]
    fn vth_monitor_reads_parameter_directly() {
        let mut p = ProcessPoint::nominal();
        p.set(ProcessParameter::VthN, 0.53);
        assert_eq!(PcmKind::VthMonitor.ideal_value(&p), 0.53);
    }

    #[test]
    fn measurement_noise_is_bounded_and_unbiased() {
        let suite = PcmSuite::new(vec![PcmKind::PathDelay], 0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ideal = suite.measure_ideal(&ProcessPoint::nominal())[0];
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|_| suite.measure(&ProcessPoint::nominal(), &mut rng)[0])
            .sum::<f64>()
            / n as f64;
        assert!(
            ((mean - ideal) / ideal).abs() < 0.002,
            "noise bias {}",
            (mean - ideal) / ideal
        );
    }

    #[test]
    fn zero_noise_suite_is_deterministic() {
        let suite = PcmSuite::new(vec![PcmKind::LeakageCurrent], 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let a = suite.measure(&ProcessPoint::nominal(), &mut rng);
        let b = suite.measure(&ProcessPoint::nominal(), &mut rng);
        assert_eq!(a, b);
        assert_eq!(a, suite.measure_ideal(&ProcessPoint::nominal()));
    }

    #[test]
    fn constructor_rejects_bad_input() {
        assert!(PcmSuite::new(vec![], 0.001).is_err());
        assert!(PcmSuite::new(vec![PcmKind::PathDelay], -0.1).is_err());
        assert!(PcmSuite::new(vec![PcmKind::PathDelay], f64::NAN).is_err());
    }

    #[test]
    fn tamper_scales_readings() {
        let suite = PcmSuite::new(vec![PcmKind::PathDelay], 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let clean = suite.measure_ideal(&ProcessPoint::nominal())[0];
        let tamper = PcmTamper::on_kind(PcmKind::PathDelay, 0.9);
        let tampered = suite.measure_detailed(
            &ProcessPoint::nominal(),
            &Environment::nominal(),
            &tamper,
            &mut rng,
        )[0];
        assert!((tampered / clean - 0.9).abs() < 1e-12);
        // Untouched kinds unaffected.
        let suite2 = PcmSuite::new(vec![PcmKind::LeakageCurrent], 0.0).unwrap();
        let t2 = suite2.measure_detailed(
            &ProcessPoint::nominal(),
            &Environment::nominal(),
            &tamper,
            &mut rng,
        )[0];
        assert_eq!(t2, suite2.measure_ideal(&ProcessPoint::nominal())[0]);
    }

    #[test]
    fn tamper_constructors_compose() {
        assert!(PcmTamper::none().is_none());
        assert!(PcmTamper::default().is_none());
        assert!(!PcmTamper::uniform(1.05).is_none());
        let t = PcmTamper::on_kind(PcmKind::PathDelay, 0.9)
            .and(PcmKind::PathDelay, 0.9)
            .and(PcmKind::VthMonitor, 1.1);
        assert!((t.factor(PcmKind::PathDelay) - 0.81).abs() < 1e-12);
        assert!((t.factor(PcmKind::VthMonitor) - 1.1).abs() < 1e-12);
        assert_eq!(t.factor(PcmKind::RingOscillator), 1.0);
    }

    #[test]
    fn all_kinds_produce_finite_positive_values() {
        for kind in PcmKind::ALL {
            let v = kind.ideal_value(&ProcessPoint::nominal());
            assert!(v.is_finite() && v > 0.0, "{kind:?} produced {v}");
        }
    }
}
