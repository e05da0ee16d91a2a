//! The Ultra-Wide-Band transmitter analog model.
//!
//! The transmitter sends each ciphertext bit as an on-off-keyed pulse: a
//! `1` bit produces a pulse whose **amplitude** follows the PA's
//! process-dependent drive strength and whose **frequency** follows the
//! output tank's process-dependent resonance. A `0` bit transmits nothing.
//!
//! Hardware Trojans hook into exactly this stage: per ciphertext bit `i`,
//! the modulation factors of [`Trojan`] multiply
//! amplitude (Trojan I) or frequency (Trojan II) depending on key bit `i`.
//!
//! [`Trojan`]: crate::trojan::Trojan

use rand::Rng;
use sidefp_silicon::device_models;
use sidefp_silicon::environment::Environment;
use sidefp_silicon::params::ProcessPoint;
use sidefp_stats::MultivariateNormal;

use crate::trojan::Trojan;
use crate::ChipError;

/// PA gate bias of the platform \[V\].
pub const PA_BIAS: f64 = 1.2;

/// Relative per-pulse electronic noise (thermal + supply) on amplitude.
pub const PULSE_AMPLITUDE_NOISE: f64 = 0.002;

/// Relative per-pulse jitter on pulse frequency.
pub const PULSE_FREQUENCY_NOISE: f64 = 0.0005;

/// One transmitted UWB pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UwbPulse {
    /// Pulse amplitude (normalized; nominal device ≈ 1.0).
    pub amplitude: f64,
    /// Pulse center frequency \[GHz\].
    pub frequency: f64,
}

/// The on-air record of one 128-bit block transmission.
///
/// `pulses[i]` is `Some` iff ciphertext bit `i` was `1` (on-off keying).
/// This is what both the attacker's receiver and the tester's power meter
/// observe on the public channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    pulses: Vec<Option<UwbPulse>>,
}

impl Transmission {
    /// Per-bit pulses (None = bit was `0`, nothing transmitted).
    pub fn pulses(&self) -> &[Option<UwbPulse>] {
        &self.pulses
    }

    /// Number of bit slots (always 128 for this platform).
    pub fn len(&self) -> usize {
        self.pulses.len()
    }

    /// `true` if no slots (never for real transmissions).
    pub fn is_empty(&self) -> bool {
        self.pulses.is_empty()
    }

    /// Number of actual pulses (the block's Hamming weight).
    pub fn pulse_count(&self) -> usize {
        self.pulses.iter().filter(|p| p.is_some()).count()
    }
}

/// The UWB transmitter of one die.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sidefp_chip::trojan::Trojan;
/// use sidefp_chip::uwb::UwbTransmitter;
/// use sidefp_silicon::environment::Environment;
/// use sidefp_silicon::params::ProcessPoint;
///
/// # fn main() -> Result<(), sidefp_chip::ChipError> {
/// let tx = UwbTransmitter::from_process_at(&ProcessPoint::nominal(), &Environment::nominal());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let bits = vec![true; 128];
/// let keyb = vec![false; 128];
/// let t = tx.transmit(&bits, &keyb, Trojan::None, &mut rng)?;
/// assert_eq!(t.pulse_count(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UwbTransmitter {
    base_amplitude: f64,
    base_frequency: f64,
}

impl UwbTransmitter {
    /// Derives the transmitter's electrical personality from the die's
    /// process parameters under explicit operating conditions
    /// (temperature weakens the drive; the tank is passives-only and
    /// temperature-insensitive at this fidelity).
    pub fn from_process_at(process: &ProcessPoint, env: &Environment) -> Self {
        UwbTransmitter {
            base_amplitude: device_models::pa_amplitude_at(process, env),
            base_frequency: device_models::tank_frequency(process),
        }
    }

    /// Process-determined pulse amplitude (before noise and Trojan).
    pub fn base_amplitude(&self) -> f64 {
        self.base_amplitude
    }

    /// Returns a transmitter with its drive derated by `factor`
    /// (models supply droop from parasitic on-die loads).
    pub fn with_amplitude_scale(mut self, factor: f64) -> Self {
        self.base_amplitude *= factor;
        self
    }

    /// Transmits one 128-bit block: `bits` are the ciphertext bits (OOK),
    /// `key_bits` the on-chip key bits the Trojan leaks.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidParameter`] if `bits` and `key_bits`
    /// have different lengths or are empty.
    pub fn transmit<R: Rng>(
        &self,
        bits: &[bool],
        key_bits: &[bool],
        trojan: Trojan,
        rng: &mut R,
    ) -> Result<Transmission, ChipError> {
        if bits.is_empty() {
            return Err(ChipError::Empty { what: "bits" });
        }
        if bits.len() != key_bits.len() {
            return Err(ChipError::InvalidParameter {
                name: "key_bits",
                reason: format!(
                    "length {} does not match ciphertext bits {}",
                    key_bits.len(),
                    bits.len()
                ),
            });
        }
        let pulses = bits
            .iter()
            .zip(key_bits)
            .map(|(&bit, &key_bit)| {
                if !bit {
                    return None;
                }
                let amp_noise =
                    1.0 + MultivariateNormal::standard_normal(rng) * PULSE_AMPLITUDE_NOISE;
                let freq_noise =
                    1.0 + MultivariateNormal::standard_normal(rng) * PULSE_FREQUENCY_NOISE;
                Some(UwbPulse {
                    amplitude: self.base_amplitude * trojan.amplitude_factor(key_bit) * amp_noise,
                    frequency: self.base_frequency * trojan.frequency_factor(key_bit) * freq_noise,
                })
            })
            .collect();
        Ok(Transmission { pulses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_silicon::params::ProcessParameter;

    fn all_ones() -> Vec<bool> {
        vec![true; 128]
    }

    fn nominal_tx(process: &ProcessPoint) -> UwbTransmitter {
        UwbTransmitter::from_process_at(process, &Environment::nominal())
    }

    #[test]
    fn nominal_transmitter_properties() {
        let tx = nominal_tx(&ProcessPoint::nominal());
        assert!((tx.base_amplitude() - 1.0).abs() < 1e-12);
        assert!((tx.base_frequency - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ook_suppresses_zero_bits() {
        let tx = nominal_tx(&ProcessPoint::nominal());
        let mut rng = StdRng::seed_from_u64(1);
        let mut bits = vec![false; 128];
        bits[5] = true;
        bits[77] = true;
        let t = tx
            .transmit(&bits, &[true; 128], Trojan::None, &mut rng)
            .unwrap();
        assert_eq!(t.pulse_count(), 2);
        assert!(t.pulses()[5].is_some());
        assert!(t.pulses()[0].is_none());
        assert_eq!(t.len(), 128);
        assert!(!t.is_empty());
    }

    #[test]
    fn amplitude_trojan_raises_key_zero_pulses() {
        let tx = nominal_tx(&ProcessPoint::nominal());
        let mut rng = StdRng::seed_from_u64(2);
        let mut key = vec![true; 128];
        key[..64].fill(false);
        let t = tx
            .transmit(
                &all_ones(),
                &key,
                Trojan::AmplitudeLeak { delta: 0.05 },
                &mut rng,
            )
            .unwrap();
        let zero_avg: f64 = (0..64)
            .map(|i| t.pulses()[i].unwrap().amplitude)
            .sum::<f64>()
            / 64.0;
        let one_avg: f64 = (64..128)
            .map(|i| t.pulses()[i].unwrap().amplitude)
            .sum::<f64>()
            / 64.0;
        let ratio = zero_avg / one_avg;
        assert!((ratio - 1.05).abs() < 0.005, "ratio {ratio}");
    }

    #[test]
    fn frequency_trojan_shifts_key_zero_pulses() {
        let tx = nominal_tx(&ProcessPoint::nominal());
        let mut rng = StdRng::seed_from_u64(3);
        let mut key = vec![true; 128];
        key[0] = false;
        let t = tx
            .transmit(
                &all_ones(),
                &key,
                Trojan::FrequencyLeak { delta: 0.01 },
                &mut rng,
            )
            .unwrap();
        let f0 = t.pulses()[0].unwrap().frequency;
        let f1 = t.pulses()[1].unwrap().frequency;
        assert!(f0 > f1 * 1.005, "f0 {f0} vs f1 {f1}");
        // Amplitudes stay statistically identical.
        let a0 = t.pulses()[0].unwrap().amplitude;
        assert!((a0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn clean_device_pulses_unmodulated() {
        let tx = nominal_tx(&ProcessPoint::nominal());
        let mut rng = StdRng::seed_from_u64(4);
        let mut key = vec![true; 128];
        key[..64].fill(false);
        let t = tx
            .transmit(&all_ones(), &key, Trojan::None, &mut rng)
            .unwrap();
        let zero_avg: f64 = (0..64)
            .map(|i| t.pulses()[i].unwrap().amplitude)
            .sum::<f64>()
            / 64.0;
        let one_avg: f64 = (64..128)
            .map(|i| t.pulses()[i].unwrap().amplitude)
            .sum::<f64>()
            / 64.0;
        assert!((zero_avg / one_avg - 1.0).abs() < 0.002);
    }

    #[test]
    fn process_variation_moves_amplitude() {
        let mut weak = ProcessPoint::nominal();
        weak.set(ProcessParameter::MobilityN, 0.9);
        weak.set(ProcessParameter::VthN, 0.55);
        let tx_weak = nominal_tx(&weak);
        let tx_nom = nominal_tx(&ProcessPoint::nominal());
        assert!(tx_weak.base_amplitude() < tx_nom.base_amplitude());
    }

    #[test]
    fn input_validation() {
        let tx = nominal_tx(&ProcessPoint::nominal());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(tx.transmit(&[], &[], Trojan::None, &mut rng).is_err());
        assert!(tx
            .transmit(&[true], &[true, false], Trojan::None, &mut rng)
            .is_err());
    }
}
