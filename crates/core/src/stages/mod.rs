//! The three stages of the golden chip-free flow.

mod premanufacturing;
pub mod recalibrate;
pub mod sanitize;
mod silicon_stage;
pub mod trojan_test;

pub use premanufacturing::PremanufacturingStage;
pub use recalibrate::{LotAction, LotOutcome, LotStream};
pub use sanitize::{
    sanitize_measurements, sanitize_measurements_pinned, SanitizedMeasurements, SanitizerConfig,
    SanitizerThresholds,
};
pub use silicon_stage::SiliconStage;

use rand::Rng;
use sidefp_chip::channel::ChannelStack;
use sidefp_chip::measurement::{FingerprintPlan, SideChannelMeter};
use sidefp_silicon::pcm::PcmSuite;

use crate::config::ExperimentConfig;
use crate::CoreError;

/// The shared test setup: on-chip key, fingerprint measurement plan, the
/// tester's side-channel stack and the PCM suite.
///
/// The same bench is applied to simulated golden devices and fabricated
/// DUTTs so fingerprint coordinates are comparable across stages. The
/// default stack is the paper's single power channel; multi-parameter
/// scenarios swap in a wider [`ChannelStack`] via
/// [`Testbench::with_channels`].
#[derive(Debug, Clone, PartialEq)]
pub struct Testbench {
    key: [u8; 16],
    plan: FingerprintPlan,
    meter: SideChannelMeter,
    channels: ChannelStack,
    pcm_suite: PcmSuite,
}

impl Testbench {
    /// Draws a random on-chip key and measurement plan (paper §3.1: "6
    /// randomly chosen 128-bit ciphertext blocks, encrypted with a randomly
    /// chosen key").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero block count.
    pub fn random<R: Rng>(
        rng: &mut R,
        blocks: usize,
        pcm_suite: PcmSuite,
    ) -> Result<Self, CoreError> {
        let key: [u8; 16] = core::array::from_fn(|_| rng.random());
        let plan = FingerprintPlan::random(rng, blocks)?;
        let meter = SideChannelMeter::default();
        Ok(Testbench {
            key,
            plan,
            channels: ChannelStack::power_only(meter.clone()),
            meter,
            pcm_suite,
        })
    }

    /// The bench `config` describes: a [`Testbench::random`] draw with its
    /// block count and PCM suite, measured through its meter and, when it
    /// sets one, its side-channel stack.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero block count.
    pub fn from_config<R: Rng>(config: &ExperimentConfig, rng: &mut R) -> Result<Self, CoreError> {
        let bench = Testbench::random(rng, config.fingerprint_blocks, config.pcm_suite.clone())?
            .with_meter(config.meter.clone());
        Ok(match &config.channels {
            Some(channels) => bench.with_channels(channels.clone()),
            None => bench,
        })
    }

    /// Replaces the tester's power meter (builder style). Resets the
    /// channel stack to power-only through the new meter, preserving the
    /// historical contract that `with_meter` fully describes the tester.
    pub fn with_meter(mut self, meter: SideChannelMeter) -> Self {
        self.channels = ChannelStack::power_only(meter.clone());
        self.meter = meter;
        self
    }

    /// Replaces the tester's side-channel stack (builder style).
    pub fn with_channels(mut self, channels: ChannelStack) -> Self {
        self.channels = channels;
        self
    }

    /// The on-chip AES key shared by all devices.
    pub fn key(&self) -> [u8; 16] {
        self.key
    }

    /// The fingerprint measurement plan.
    pub fn plan(&self) -> &FingerprintPlan {
        &self.plan
    }

    /// The tester's power meter (the first/primary receiver).
    pub fn meter(&self) -> &SideChannelMeter {
        &self.meter
    }

    /// The tester's side-channel stack.
    pub fn channels(&self) -> &ChannelStack {
        &self.channels
    }

    /// Total fingerprint width under this bench's plan and stack.
    pub fn fingerprint_width(&self) -> usize {
        self.channels.width(&self.plan)
    }

    /// The PCM suite.
    pub fn pcm_suite(&self) -> &PcmSuite {
        &self.pcm_suite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bench_is_deterministic_by_seed() {
        let a =
            Testbench::random(&mut StdRng::seed_from_u64(1), 6, PcmSuite::paper_default()).unwrap();
        let b =
            Testbench::random(&mut StdRng::seed_from_u64(1), 6, PcmSuite::paper_default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.plan().len(), 6);
        assert_eq!(a.pcm_suite().len(), 1);
        assert_eq!(a.key().len(), 16);
        let _ = a.meter();
        // Default stack: the paper's single power channel, 6 columns.
        assert_eq!(a.channels().channel_names(), vec!["power"]);
        assert_eq!(a.fingerprint_width(), 6);
    }

    #[test]
    fn with_channels_swaps_the_stack() {
        use sidefp_chip::channel::{ChannelSpec, DelayChannel, PowerChannel};
        let bench =
            Testbench::random(&mut StdRng::seed_from_u64(3), 6, PcmSuite::paper_default()).unwrap();
        let stack = ChannelStack::new(vec![
            ChannelSpec::Power(PowerChannel::default()),
            ChannelSpec::Delay(DelayChannel::default()),
        ])
        .unwrap();
        let bench = bench.with_channels(stack);
        assert_eq!(bench.fingerprint_width(), 7);
        assert_eq!(bench.channels().channel_names(), vec!["power", "delay"]);
        // with_meter resets to power-only through the new meter.
        let bench = bench.with_meter(SideChannelMeter::default());
        assert_eq!(bench.fingerprint_width(), 6);
    }

    #[test]
    fn zero_blocks_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(Testbench::random(&mut rng, 0, PcmSuite::paper_default()).is_err());
    }
}
