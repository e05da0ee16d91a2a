//! Pluggable side-channel models producing named fingerprint columns.
//!
//! The paper's fingerprint is a single channel — transmission power through
//! the tester's slope-detection receiver. The multi-parameter literature it
//! cites (\[10, 13\]) fingerprints the same die through several independent
//! physical paths at once. This module makes the channel set a first-class
//! experiment axis: a [`ChannelStack`] is an ordered list of channel models,
//! each contributing *named* fingerprint columns, and the whole detection
//! pipeline is generic over the stack.
//!
//! The power-only stack ([`ChannelStack::power_only`]) draws exactly the
//! same RNG sequence as the legacy [`SideChannelMeter::fingerprint`] path,
//! so the paper's original scenario stays bit-identical.

use rand::rngs::StdRng;
use sidefp_silicon::device_models;
use sidefp_stats::MultivariateNormal;

use crate::device::WirelessCryptoIc;
use crate::measurement::{FingerprintPlan, SideChannelMeter};
use crate::supply::SupplyCurrentMeter;
use crate::ChipError;

/// A side-channel measurement model: maps a device (plus the shared
/// measurement plan) to a fixed-width slice of fingerprint coordinates.
///
/// Implementations must be deterministic given the RNG stream and must
/// report a `width` that matches the length of every `measure` result —
/// [`ChannelStack`] relies on it to lay out columns.
pub trait SideChannel {
    /// Short channel identifier used in column names and reports.
    fn name(&self) -> &'static str;

    /// Number of fingerprint columns this channel contributes under `plan`.
    fn width(&self, plan: &FingerprintPlan) -> usize;

    /// Names of the contributed columns, `width` entries.
    fn column_names(&self, plan: &FingerprintPlan) -> Vec<String> {
        (0..self.width(plan))
            .map(|i| format!("{}[{i}]", self.name()))
            .collect()
    }

    /// Measures the channel on one device.
    fn measure(
        &self,
        device: &WirelessCryptoIc,
        plan: &FingerprintPlan,
        rng: &mut StdRng,
    ) -> Vec<f64>;
}

/// The paper's transmission-power channel: one measured output power per
/// plan block, via the band-limited slope-detection receiver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerChannel {
    /// The tester's receiver/detector model.
    pub meter: SideChannelMeter,
}

impl SideChannel for PowerChannel {
    fn name(&self) -> &'static str {
        "power"
    }

    fn width(&self, plan: &FingerprintPlan) -> usize {
        plan.len()
    }

    fn measure(
        &self,
        device: &WirelessCryptoIc,
        plan: &FingerprintPlan,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        self.meter.fingerprint(device, plan, rng)
    }
}

/// Integrated supply-current (IDDT) channel on the digital core: one
/// reading per plan block (capped at `blocks`), through the independent
/// supply-rail path. Sees dormant payloads through their static leakage.
#[derive(Debug, Clone, PartialEq)]
pub struct SupplyCurrentChannel {
    /// The integrating ammeter model.
    pub meter: SupplyCurrentMeter,
    /// Number of plan blocks measured (IDDT capture is slow; testers
    /// usually take fewer IDDT points than power points).
    pub blocks: usize,
}

impl Default for SupplyCurrentChannel {
    /// Two IDDT readings with the default ammeter.
    fn default() -> Self {
        SupplyCurrentChannel {
            meter: SupplyCurrentMeter::default(),
            blocks: 2,
        }
    }
}

impl SideChannel for SupplyCurrentChannel {
    fn name(&self) -> &'static str {
        "iddt"
    }

    fn width(&self, plan: &FingerprintPlan) -> usize {
        self.blocks.min(plan.len())
    }

    fn measure(
        &self,
        device: &WirelessCryptoIc,
        plan: &FingerprintPlan,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let n = self.width(plan);
        self.meter.fingerprint(device, &plan.plaintexts()[..n], rng)
    }
}

/// Critical-path delay channel: the tester launches a transition through
/// the core's longest path and times the response. One column.
///
/// A dormant payload's parasitic fan-out multiplies the path delay by
/// [`crate::trojan::Trojan::payload_delay_factor`], making triggered
/// Trojans visible here even though they never touch the air interface.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayChannel {
    /// Relative timing-measurement repeatability.
    pub noise_relative: f64,
    /// Logic depth of the observed path, in gate delays.
    pub path_stages: f64,
}

impl Default for DelayChannel {
    /// 0.2 % timing repeatability on a 40-stage critical path.
    fn default() -> Self {
        DelayChannel {
            noise_relative: 0.002,
            path_stages: 40.0,
        }
    }
}

impl SideChannel for DelayChannel {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn width(&self, _plan: &FingerprintPlan) -> usize {
        1
    }

    fn column_names(&self, _plan: &FingerprintPlan) -> Vec<String> {
        vec!["delay[critical]".into()]
    }

    fn measure(
        &self,
        device: &WirelessCryptoIc,
        _plan: &FingerprintPlan,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let stage = device_models::gate_delay_at(device.process(), device.environment());
        let path = stage * self.path_stages * device.trojan().payload_delay_factor();
        let noise = 1.0 + MultivariateNormal::standard_normal(rng) * self.noise_relative;
        vec![path * noise]
    }
}

/// Spectral (EM-style) channel: two extra receivers parked off the band
/// center straddle the tank resonance, so the *ratio structure* across
/// them localizes the pulse spectrum — a crude spectrum analyzer that
/// discriminates frequency shifts far better than one slope detector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralChannel {
    /// Receiver center frequencies \[GHz\], one column per probe per block.
    pub probe_frequencies: Vec<f64>,
    /// Half-bandwidth of each probe receiver \[GHz\].
    pub half_bandwidth: f64,
    /// Relative instrument noise per block measurement.
    pub noise_relative: f64,
    /// Plan blocks captured per probe.
    pub blocks: usize,
}

impl Default for SpectralChannel {
    /// Probes at 3.40 and 4.10 GHz (below / above the 4.0 GHz tank), one
    /// block each side.
    fn default() -> Self {
        SpectralChannel {
            probe_frequencies: vec![3.40, 4.10],
            half_bandwidth: 0.45,
            noise_relative: 0.004,
            blocks: 1,
        }
    }
}

impl SideChannel for SpectralChannel {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn width(&self, plan: &FingerprintPlan) -> usize {
        self.probe_frequencies.len() * self.blocks.min(plan.len())
    }

    fn column_names(&self, plan: &FingerprintPlan) -> Vec<String> {
        let blocks = self.blocks.min(plan.len());
        self.probe_frequencies
            .iter()
            .flat_map(|f| (0..blocks).map(move |b| format!("spectral[{f:.2}GHz,{b}]")))
            .collect()
    }

    fn measure(
        &self,
        device: &WirelessCryptoIc,
        plan: &FingerprintPlan,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let blocks = self.blocks.min(plan.len());
        let mut out = Vec::with_capacity(self.probe_frequencies.len() * blocks);
        for &center in &self.probe_frequencies {
            let probe = SideChannelMeter {
                center_frequency: center,
                half_bandwidth: self.half_bandwidth,
                noise_relative: self.noise_relative,
            };
            for pt in &plan.plaintexts()[..blocks] {
                let tx = device.transmit_block(pt, rng);
                out.push(probe.measure_block(&tx, rng));
            }
        }
        out
    }
}

/// One entry of a [`ChannelStack`]: closed enum over the concrete channel
/// models, so stacks stay `Clone + PartialEq` (and thus `Testbench` and
/// configs keep their derives) while dispatching through [`SideChannel`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChannelSpec {
    /// Transmission-power channel.
    Power(PowerChannel),
    /// Supply-current channel.
    SupplyCurrent(SupplyCurrentChannel),
    /// Critical-path delay channel.
    Delay(DelayChannel),
    /// Off-center spectral probes.
    Spectral(SpectralChannel),
}

impl ChannelSpec {
    /// The underlying channel model as a trait object.
    pub(crate) fn as_channel(&self) -> &dyn SideChannel {
        match self {
            ChannelSpec::Power(c) => c,
            ChannelSpec::SupplyCurrent(c) => c,
            ChannelSpec::Delay(c) => c,
            ChannelSpec::Spectral(c) => c,
        }
    }

    /// Short channel identifier.
    pub fn name(&self) -> &'static str {
        self.as_channel().name()
    }
}

/// An ordered, non-empty set of side channels measured on every device.
///
/// The stack fixes both the fingerprint layout (column order = channel
/// order) and the RNG draw order, so a given `(stack, plan, seed)` triple
/// is fully deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStack {
    channels: Vec<ChannelSpec>,
}

impl ChannelStack {
    /// Builds a stack from channel specs.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Empty`] for an empty list.
    pub fn new(channels: Vec<ChannelSpec>) -> Result<Self, ChipError> {
        if channels.is_empty() {
            return Err(ChipError::Empty { what: "channels" });
        }
        Ok(ChannelStack { channels })
    }

    /// The paper's configuration: a single power channel with the given
    /// tester meter. Draw-for-draw identical to the legacy
    /// `meter.fingerprint(device, plan, rng)` path.
    pub fn power_only(meter: SideChannelMeter) -> Self {
        ChannelStack {
            channels: vec![ChannelSpec::Power(PowerChannel { meter })],
        }
    }

    /// The channel specs, in measurement order.
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// Short names of the stacked channels (report axis labels).
    pub fn channel_names(&self) -> Vec<&'static str> {
        self.channels.iter().map(ChannelSpec::name).collect()
    }

    /// Total fingerprint width under `plan`.
    pub fn width(&self, plan: &FingerprintPlan) -> usize {
        self.channels
            .iter()
            .map(|c| c.as_channel().width(plan))
            .sum()
    }

    /// Names of all fingerprint columns, `width` entries in layout order.
    pub fn column_names(&self, plan: &FingerprintPlan) -> Vec<String> {
        self.channels
            .iter()
            .flat_map(|c| c.as_channel().column_names(plan))
            .collect()
    }

    /// Measures the full stacked fingerprint of one device: each channel's
    /// columns in stack order, drawn from the single shared RNG stream.
    ///
    /// Takes the pipeline's concrete `StdRng` (not a generic `R: Rng`) so
    /// [`SideChannel`] stays object-safe and the draw sequence is pinned.
    pub fn fingerprint(
        &self,
        device: &WirelessCryptoIc,
        plan: &FingerprintPlan,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.width(plan));
        for c in &self.channels {
            out.extend(c.as_channel().measure(device, plan, rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trojan::Trojan;
    use rand::SeedableRng;
    use sidefp_silicon::params::ProcessPoint;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    fn plan() -> FingerprintPlan {
        let mut rng = StdRng::seed_from_u64(2014);
        FingerprintPlan::random(&mut rng, 6).unwrap()
    }

    fn device(trojan: Trojan) -> WirelessCryptoIc {
        WirelessCryptoIc::new(ProcessPoint::nominal(), KEY, trojan)
    }

    #[test]
    fn power_only_matches_legacy_meter_path() {
        let meter = SideChannelMeter::default();
        let stack = ChannelStack::power_only(meter.clone());
        let p = plan();
        let dev = device(Trojan::None);
        let legacy = meter.fingerprint(&dev, &p, &mut StdRng::seed_from_u64(11));
        let stacked = stack.fingerprint(&dev, &p, &mut StdRng::seed_from_u64(11));
        assert_eq!(legacy, stacked, "power-only stack must be bit-identical");
        assert_eq!(stack.width(&p), 6);
        assert_eq!(stack.channel_names(), vec!["power"]);
    }

    #[test]
    fn stack_width_and_columns_are_consistent() {
        let stack = ChannelStack::new(vec![
            ChannelSpec::Power(PowerChannel::default()),
            ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
            ChannelSpec::Delay(DelayChannel::default()),
            ChannelSpec::Spectral(SpectralChannel::default()),
        ])
        .unwrap();
        let p = plan();
        // power 6 + iddt 2 + delay 1 + spectral 2 probes x 1 block = 11.
        assert_eq!(stack.width(&p), 11);
        let names = stack.column_names(&p);
        assert_eq!(names.len(), 11);
        assert_eq!(names[0], "power[0]");
        assert_eq!(names[6], "iddt[0]");
        assert_eq!(names[8], "delay[critical]");
        assert!(names[9].starts_with("spectral[3.40GHz"));
        let fp = stack.fingerprint(&device(Trojan::None), &p, &mut StdRng::seed_from_u64(3));
        assert_eq!(fp.len(), 11);
        assert!(fp.iter().all(|v| v.is_finite() && *v > 0.0), "{fp:?}");
    }

    #[test]
    fn empty_stack_rejected() {
        assert!(ChannelStack::new(vec![]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let stack = ChannelStack::new(vec![
            ChannelSpec::Power(PowerChannel::default()),
            ChannelSpec::Delay(DelayChannel::default()),
        ])
        .unwrap();
        let p = plan();
        let dev = device(Trojan::None);
        let a = stack.fingerprint(&dev, &p, &mut StdRng::seed_from_u64(9));
        let b = stack.fingerprint(&dev, &p, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn dormant_payload_visible_to_delay_and_iddt_not_power() {
        let p = plan();
        let clean = device(Trojan::None);
        let infested = device(Trojan::dormant_payload());

        let noiseless_delay = DelayChannel {
            noise_relative: 0.0,
            path_stages: 40.0,
        };
        let d_clean = noiseless_delay.measure(&clean, &p, &mut StdRng::seed_from_u64(1));
        let d_bad = noiseless_delay.measure(&infested, &p, &mut StdRng::seed_from_u64(1));
        let bump = d_bad[0] / d_clean[0] - 1.0;
        assert!((bump - 0.01).abs() < 1e-9, "delay bump {bump}");

        let noiseless_iddt = SupplyCurrentChannel {
            meter: SupplyCurrentMeter {
                noise_relative: 0.0,
            },
            blocks: 2,
        };
        let i_clean = noiseless_iddt.measure(&clean, &p, &mut StdRng::seed_from_u64(2));
        let i_bad = noiseless_iddt.measure(&infested, &p, &mut StdRng::seed_from_u64(2));
        assert!(i_bad[0] > i_clean[0] * 1.05, "IDDT blind to payload");

        // Power sees only the ~0.5% supply droop (squared: ~1%) — below the
        // several-percent process spread the boundary must tolerate.
        let power = PowerChannel::default();
        let p_clean = power.measure(&clean, &p, &mut StdRng::seed_from_u64(3));
        let p_bad = power.measure(&infested, &p, &mut StdRng::seed_from_u64(3));
        let ratio: f64 =
            p_bad.iter().zip(&p_clean).map(|(b, c)| b / c).sum::<f64>() / p_clean.len() as f64;
        assert!((ratio - 1.0).abs() < 0.02, "power ratio {ratio}");
    }

    #[test]
    fn spectral_probes_discriminate_frequency_shift() {
        let p = plan();
        let clean = device(Trojan::None);
        let shifted = device(Trojan::FrequencyLeak { delta: 0.05 });
        let spectral = SpectralChannel {
            noise_relative: 0.0,
            ..SpectralChannel::default()
        };
        let s_clean = spectral.measure(&clean, &p, &mut StdRng::seed_from_u64(4));
        let s_bad = spectral.measure(&shifted, &p, &mut StdRng::seed_from_u64(4));
        // Upward frequency shift moves energy toward the high probe and
        // away from the low probe: the high/low ratio must grow.
        let r_clean = s_clean[1] / s_clean[0];
        let r_bad = s_bad[1] / s_bad[0];
        assert!(r_bad > r_clean, "ratio {r_bad} vs {r_clean}");
    }
}
