//! The hardware Trojans.
//!
//! Both Trojans leak the 128-bit on-chip AES key through the wireless
//! channel: along with each 128-bit ciphertext block, bit `i` of the key
//! modulates the transmission of ciphertext bit `i` — amplitude for
//! Trojan I, pulse frequency for Trojan II. When the leaked key bit is
//! `1` the transmission is unaltered; when it is `0` the parameter is
//! slightly increased, hiding well inside the margins left for process
//! variation (paper §3.1).

use crate::ChipError;

/// Coarse taxonomy of Trojan behaviour, one axis of the scenario grid.
///
/// The paper's two RF leaks are *always-on parametric* Trojans: they
/// continuously modulate an analog parameter and never change digital
/// function. The dormant payload is a *triggered* Trojan measured in its
/// dormant state: no air-interface effect at all, only parasitic supply /
/// timing side effects of the extra gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrojanClass {
    /// No Trojan present.
    Genuine,
    /// Continuously active analog modulation (Trojans I and II).
    AlwaysOnParametric,
    /// Dormant digital payload awaiting a trigger (Trojan III).
    TriggeredDormant,
}

impl TrojanClass {
    /// Short identifier used in scenario reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrojanClass::Genuine => "genuine",
            TrojanClass::AlwaysOnParametric => "always-on",
            TrojanClass::TriggeredDormant => "dormant",
        }
    }
}

/// A hardware Trojan configuration of the wireless IC.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum Trojan {
    /// Trojan-free device.
    #[default]
    None,
    /// Trojan I: bumps pulse **amplitude** by the relative `delta` on
    /// key-0 positions.
    AmplitudeLeak {
        /// Relative amplitude increase (e.g. `0.02` = +2 %).
        delta: f64,
    },
    /// Trojan II: bumps pulse **frequency** by the relative `delta` on
    /// key-0 positions.
    FrequencyLeak {
        /// Relative frequency increase.
        delta: f64,
    },
    /// Trojan III (extension): a dormant digital payload — extra gates
    /// waiting for a trigger. It leaks nothing over the air; its only
    /// side effects are static supply leakage and a slight supply droop
    /// that derates the transmitter.
    DormantPayload {
        /// Payload size in gate equivalents.
        gates: usize,
    },
}

impl Trojan {
    /// Trojan I with the silicon-calibrated default modulation depth:
    /// +2 % amplitude, well inside the ±3σ process margin (~±15 %).
    pub fn amplitude_leak() -> Self {
        Trojan::AmplitudeLeak { delta: 0.02 }
    }

    /// Trojan II with the default +1 % frequency modulation depth.
    pub fn frequency_leak() -> Self {
        Trojan::FrequencyLeak { delta: 0.01 }
    }

    /// Trojan III with a 1000-gate dormant payload (roughly 3 % of the
    /// AES core's area — small enough to hide in layout slack).
    pub fn dormant_payload() -> Self {
        Trojan::DormantPayload { gates: 1000 }
    }

    /// Static supply-leakage the Trojan adds, in unit-transistor leakage
    /// equivalents (zero for the analog leak Trojans).
    pub fn payload_leakage_units(&self) -> f64 {
        match self {
            Trojan::DormantPayload { gates } => *gates as f64,
            _ => 0.0,
        }
    }

    /// Supply-droop derating the payload imposes on the transmitter's
    /// pulse amplitude (multiplicative, ≤ 1).
    pub fn payload_amplitude_derate(&self) -> f64 {
        match self {
            // ~0.5 % droop per 1000 gate equivalents of always-on load.
            Trojan::DormantPayload { gates } => 1.0 - 5e-6 * *gates as f64,
            _ => 1.0,
        }
    }

    /// Extra gate-load factor the payload adds to the digital core's
    /// critical path (multiplicative, ≥ 1): the dormant gates hang off
    /// existing nets as parasitic fan-out. ~1 % per 1000 gate equivalents —
    /// inside timing margin, but resolvable by a precise delay tester.
    pub fn payload_delay_factor(&self) -> f64 {
        match self {
            Trojan::DormantPayload { gates } => 1.0 + 1e-5 * *gates as f64,
            _ => 1.0,
        }
    }

    /// The behavioural class of this configuration.
    pub fn class(&self) -> TrojanClass {
        match self {
            Trojan::None => TrojanClass::Genuine,
            Trojan::AmplitudeLeak { .. } | Trojan::FrequencyLeak { .. } => {
                TrojanClass::AlwaysOnParametric
            }
            Trojan::DormantPayload { .. } => TrojanClass::TriggeredDormant,
        }
    }

    /// `true` for an infested configuration.
    pub fn is_infested(&self) -> bool {
        !matches!(self, Trojan::None)
    }

    /// Amplitude multiplier for the transmission of one ciphertext bit,
    /// given the key bit leaked at that position.
    pub fn amplitude_factor(&self, key_bit: bool) -> f64 {
        match self {
            Trojan::AmplitudeLeak { delta } if !key_bit => 1.0 + delta,
            _ => 1.0,
        }
    }

    /// Frequency multiplier for the transmission of one ciphertext bit,
    /// given the key bit leaked at that position.
    pub fn frequency_factor(&self, key_bit: bool) -> f64 {
        match self {
            Trojan::FrequencyLeak { delta } if !key_bit => 1.0 + delta,
            _ => 1.0,
        }
    }

    /// Short identifier used in reports ("free", "amplitude", "frequency",
    /// "payload").
    pub fn label(&self) -> &'static str {
        match self {
            Trojan::None => "free",
            Trojan::AmplitudeLeak { .. } => "amplitude",
            Trojan::FrequencyLeak { .. } => "frequency",
            Trojan::DormantPayload { .. } => "payload",
        }
    }
}

/// The set of device variants fabricated per die in a Trojan-test
/// experiment: one entry per version of the die, always including at least
/// one Trojan-free reference.
///
/// The paper fabricates three versions of every die — genuine, Trojan I,
/// Trojan II ([`TrojanSuite::paper`]). Scenario-matrix experiments swap in
/// other suites (e.g. genuine + dormant payload) without touching the
/// pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrojanSuite {
    variants: Vec<Trojan>,
}

impl TrojanSuite {
    /// Builds a suite from explicit variants.
    ///
    /// # Errors
    ///
    /// - [`ChipError::Empty`] for an empty list.
    /// - [`ChipError::InvalidParameter`] if no variant is [`Trojan::None`]
    ///   (every experiment needs genuine devices to calibrate against).
    pub fn new(variants: Vec<Trojan>) -> Result<Self, ChipError> {
        if variants.is_empty() {
            return Err(ChipError::Empty { what: "variants" });
        }
        if !variants.iter().any(|t| !t.is_infested()) {
            return Err(ChipError::InvalidParameter {
                name: "variants",
                reason: "suite must contain at least one Trojan-free variant".into(),
            });
        }
        Ok(TrojanSuite { variants })
    }

    /// The paper's suite: genuine + amplitude leak + frequency leak, with
    /// explicit modulation depths.
    pub fn rf_leaks(amplitude_delta: f64, frequency_delta: f64) -> Self {
        TrojanSuite {
            variants: vec![
                Trojan::None,
                Trojan::AmplitudeLeak {
                    delta: amplitude_delta,
                },
                Trojan::FrequencyLeak {
                    delta: frequency_delta,
                },
            ],
        }
    }

    /// The paper's suite at the silicon-calibrated default depths.
    pub fn paper() -> Self {
        TrojanSuite {
            variants: vec![
                Trojan::None,
                Trojan::amplitude_leak(),
                Trojan::frequency_leak(),
            ],
        }
    }

    /// Genuine + dormant-payload suite: the triggered-Trojan scenario.
    pub fn dormant(gates: usize) -> Self {
        TrojanSuite {
            variants: vec![Trojan::None, Trojan::DormantPayload { gates }],
        }
    }

    /// The variants, in fabrication order.
    pub fn variants(&self) -> &[Trojan] {
        &self.variants
    }

    /// Number of device versions per die.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Always `false` (constructors reject empty suites).
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// The distinct behavioural classes present, excluding `Genuine`.
    pub fn infested_classes(&self) -> Vec<TrojanClass> {
        let mut classes = Vec::new();
        for t in &self.variants {
            let c = t.class();
            if c != TrojanClass::Genuine && !classes.contains(&c) {
                classes.push(c);
            }
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_device_never_modulates() {
        let t = Trojan::None;
        assert_eq!(t.amplitude_factor(true), 1.0);
        assert_eq!(t.amplitude_factor(false), 1.0);
        assert_eq!(t.frequency_factor(false), 1.0);
        assert!(!t.is_infested());
        assert_eq!(t.label(), "free");
        assert_eq!(Trojan::default(), Trojan::None);
    }

    #[test]
    fn amplitude_trojan_bumps_only_key_zero() {
        let t = Trojan::AmplitudeLeak { delta: 0.05 };
        assert_eq!(t.amplitude_factor(true), 1.0);
        assert!((t.amplitude_factor(false) - 1.05).abs() < 1e-15);
        // Frequency untouched.
        assert_eq!(t.frequency_factor(false), 1.0);
        assert!(t.is_infested());
        assert_eq!(t.label(), "amplitude");
    }

    #[test]
    fn frequency_trojan_bumps_only_key_zero() {
        let t = Trojan::FrequencyLeak { delta: 0.01 };
        assert_eq!(t.frequency_factor(true), 1.0);
        assert!((t.frequency_factor(false) - 1.01).abs() < 1e-15);
        assert_eq!(t.amplitude_factor(false), 1.0);
        assert_eq!(t.label(), "frequency");
    }

    #[test]
    fn payload_trojan_properties() {
        let t = Trojan::dormant_payload();
        assert!(t.is_infested());
        assert_eq!(t.label(), "payload");
        // No modulation of the air interface.
        assert_eq!(t.amplitude_factor(false), 1.0);
        assert_eq!(t.frequency_factor(false), 1.0);
        // But real supply-side effects.
        assert_eq!(t.payload_leakage_units(), 1000.0);
        assert!((t.payload_amplitude_derate() - 0.995).abs() < 1e-12);
        // Leak Trojans have no payload effects.
        assert_eq!(Trojan::amplitude_leak().payload_leakage_units(), 0.0);
        assert_eq!(Trojan::frequency_leak().payload_amplitude_derate(), 1.0);
    }

    #[test]
    fn classes_partition_the_variants() {
        assert_eq!(Trojan::None.class(), TrojanClass::Genuine);
        assert_eq!(
            Trojan::amplitude_leak().class(),
            TrojanClass::AlwaysOnParametric
        );
        assert_eq!(
            Trojan::frequency_leak().class(),
            TrojanClass::AlwaysOnParametric
        );
        assert_eq!(
            Trojan::dormant_payload().class(),
            TrojanClass::TriggeredDormant
        );
        assert_eq!(TrojanClass::Genuine.label(), "genuine");
        assert_eq!(TrojanClass::AlwaysOnParametric.label(), "always-on");
        assert_eq!(TrojanClass::TriggeredDormant.label(), "dormant");
    }

    #[test]
    fn payload_loads_the_critical_path() {
        let t = Trojan::dormant_payload();
        assert!((t.payload_delay_factor() - 1.01).abs() < 1e-12);
        // The RF-leak Trojans add no digital load.
        assert_eq!(Trojan::amplitude_leak().payload_delay_factor(), 1.0);
        assert_eq!(Trojan::None.payload_delay_factor(), 1.0);
    }

    #[test]
    fn suite_constructors_and_validation() {
        let paper = TrojanSuite::paper();
        assert_eq!(paper.len(), 3);
        assert!(!paper.is_empty());
        assert_eq!(paper.variants()[0], Trojan::None);
        assert_eq!(
            paper.infested_classes(),
            vec![TrojanClass::AlwaysOnParametric]
        );

        let rf = TrojanSuite::rf_leaks(0.26, 0.20);
        assert_eq!(rf.variants()[1], Trojan::AmplitudeLeak { delta: 0.26 });
        assert_eq!(rf.variants()[2], Trojan::FrequencyLeak { delta: 0.20 });

        let dormant = TrojanSuite::dormant(500);
        assert_eq!(dormant.len(), 2);
        assert_eq!(
            dormant.infested_classes(),
            vec![TrojanClass::TriggeredDormant]
        );

        assert!(TrojanSuite::new(vec![]).is_err());
        assert!(TrojanSuite::new(vec![Trojan::amplitude_leak()]).is_err());
        assert!(TrojanSuite::new(vec![Trojan::None, Trojan::dormant_payload()]).is_ok());
    }

    #[test]
    fn default_depths_are_subtle() {
        if let Trojan::AmplitudeLeak { delta } = Trojan::amplitude_leak() {
            assert!(delta < 0.05, "amplitude depth {delta} too obvious");
        } else {
            panic!("wrong variant");
        }
        if let Trojan::FrequencyLeak { delta } = Trojan::frequency_leak() {
            assert!(delta < 0.05, "frequency depth {delta} too obvious");
        } else {
            panic!("wrong variant");
        }
    }
}
