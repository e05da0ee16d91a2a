//! The supply-current (IDDT) side channel of the digital core.
//!
//! An extension channel in the spirit of the multi-parameter fingerprinting
//! literature the paper cites (\[10, 13\]): the tester integrates the AES
//! core's switching current over one encryption. The observable combines
//! the *data-dependent* switching activity (Hamming-distance power model,
//! identical across devices) with the *process-dependent* per-transition
//! charge — so it fingerprints the die like the transmission-power channel
//! does, through an independent physical path.

use rand::Rng;
use sidefp_silicon::device_models;
use sidefp_silicon::params::{ProcessParameter, ProcessPoint};
use sidefp_stats::MultivariateNormal;

use crate::device::WirelessCryptoIc;

/// Integrating supply-current meter on the digital core's supply rail.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sidefp_chip::device::WirelessCryptoIc;
/// use sidefp_chip::supply::SupplyCurrentMeter;
/// use sidefp_chip::trojan::Trojan;
/// use sidefp_silicon::params::ProcessPoint;
///
/// let device = WirelessCryptoIc::new(ProcessPoint::nominal(), [7u8; 16], Trojan::None);
/// let meter = SupplyCurrentMeter::default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let iddt = meter.measure(&device, &[0u8; 16], &mut rng);
/// assert!(iddt > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SupplyCurrentMeter {
    /// Relative instrument noise per measurement.
    pub noise_relative: f64,
}

impl Default for SupplyCurrentMeter {
    /// Typical integrating-ammeter repeatability (0.5 %).
    fn default() -> Self {
        SupplyCurrentMeter {
            noise_relative: 0.005,
        }
    }
}

impl SupplyCurrentMeter {
    /// Per-transition charge of the die, normalized to 1.0 at the typical
    /// corner: load capacitance (`∝ 1/t_ox`) times supply, modulated by
    /// the short-circuit component that tracks drive strength.
    pub(crate) fn charge_per_transition(process: &ProcessPoint) -> f64 {
        let cox = ProcessParameter::OxideThickness.nominal()
            / process.get(ProcessParameter::OxideThickness);
        let drive = device_models::gate_delay(&ProcessPoint::nominal())
            / device_models::gate_delay(process);
        // 80 % capacitive switching charge, 20 % short-circuit current.
        0.8 * cox + 0.2 * drive
    }

    /// Measures the integrated supply current of one encryption
    /// (normalized units): switching activity × per-transition charge ×
    /// instrument noise.
    pub fn measure<R: Rng>(
        &self,
        device: &WirelessCryptoIc,
        plaintext: &[u8; 16],
        rng: &mut R,
    ) -> f64 {
        let (_, activity) = device.encrypt_traced(plaintext);
        let charge = Self::charge_per_transition(device.process());
        // A dormant payload draws static leakage for the whole integration
        // window; one unit-transistor leakage ≈ 1e-4 of the nominal
        // per-encryption switching charge.
        let payload = device.trojan().payload_leakage_units()
            * 1e-4
            * device_models::subthreshold_leakage(device.process());
        // Normalize by the nominal ~768 transitions so readings are O(1).
        let noise = 1.0 + MultivariateNormal::standard_normal(rng) * self.noise_relative;
        (activity as f64 / 768.0 * charge + payload) * noise
    }

    /// IDDT readings for a set of plaintext blocks — extra fingerprint
    /// coordinates for multi-parameter detection.
    pub fn fingerprint<R: Rng>(
        &self,
        device: &WirelessCryptoIc,
        plaintexts: &[[u8; 16]],
        rng: &mut R,
    ) -> Vec<f64> {
        plaintexts
            .iter()
            .map(|pt| self.measure(device, pt, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trojan::Trojan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device(process: ProcessPoint) -> WirelessCryptoIc {
        WirelessCryptoIc::new(process, [0xc3; 16], Trojan::None)
    }

    #[test]
    fn nominal_reading_is_order_one() {
        let meter = SupplyCurrentMeter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let iddt = meter.measure(&device(ProcessPoint::nominal()), &[0x55; 16], &mut rng);
        assert!((0.5..2.0).contains(&iddt), "iddt {iddt}");
    }

    #[test]
    fn thicker_oxide_draws_less_charge() {
        let mut thick = ProcessPoint::nominal();
        thick.set(ProcessParameter::OxideThickness, 8.2);
        assert!(
            SupplyCurrentMeter::charge_per_transition(&thick)
                < SupplyCurrentMeter::charge_per_transition(&ProcessPoint::nominal())
        );
    }

    #[test]
    fn reading_depends_on_data_and_process() {
        let meter = SupplyCurrentMeter {
            noise_relative: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let nom = device(ProcessPoint::nominal());
        let a = meter.measure(&nom, &[0x00; 16], &mut rng);
        let b = meter.measure(&nom, &[0xff; 16], &mut rng);
        assert_ne!(a, b, "data dependence missing");
        let mut fast = ProcessPoint::nominal();
        fast.set(ProcessParameter::VthN, 0.45);
        fast.set(ProcessParameter::VthP, 0.60);
        let c = meter.measure(&device(fast), &[0x00; 16], &mut rng);
        assert!(c > a, "fast die should draw more current: {c} vs {a}");
    }

    #[test]
    fn payload_trojan_raises_iddt_but_not_much_power() {
        let meter = SupplyCurrentMeter {
            noise_relative: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let clean = WirelessCryptoIc::new(ProcessPoint::nominal(), [0xc3; 16], Trojan::None);
        let infested = WirelessCryptoIc::new(
            ProcessPoint::nominal(),
            [0xc3; 16],
            Trojan::dormant_payload(),
        );
        let a = meter.measure(&clean, &[0x5a; 16], &mut rng);
        let b = meter.measure(&infested, &[0x5a; 16], &mut rng);
        let iddt_bump = b / a - 1.0;
        assert!(iddt_bump > 0.05, "IDDT bump only {iddt_bump:.4}");
        // The transmitter barely notices (supply droop ~0.5%).
        let amp_ratio =
            infested.transmitter().base_amplitude() / clean.transmitter().base_amplitude();
        assert!((amp_ratio - 0.995).abs() < 1e-9);
    }

    #[test]
    fn analog_trojans_are_invisible_to_iddt() {
        // The paper's Trojans live in the transmitter; the digital supply
        // rail cannot see them.
        let meter = SupplyCurrentMeter {
            noise_relative: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let clean = WirelessCryptoIc::new(ProcessPoint::nominal(), [0xc3; 16], Trojan::None);
        let infested = WirelessCryptoIc::new(
            ProcessPoint::nominal(),
            [0xc3; 16],
            Trojan::amplitude_leak(),
        );
        let a = meter.measure(&clean, &[0x5a; 16], &mut rng);
        let b = meter.measure(&infested, &[0x5a; 16], &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_has_one_reading_per_block() {
        let meter = SupplyCurrentMeter::default();
        let mut rng = StdRng::seed_from_u64(4);
        let fp = meter.fingerprint(
            &device(ProcessPoint::nominal()),
            &[[0u8; 16], [1u8; 16], [2u8; 16]],
            &mut rng,
        );
        assert_eq!(fp.len(), 3);
        assert!(fp.iter().all(|v| *v > 0.0));
    }
}
