//! Scenario-matrix cells: named points of the
//! (channel stack × Trojan suite × process corner × technology preset)
//! grid, each lowered onto the full B1–B5 flow.
//!
//! A [`Scenario`] is a declarative cell description; [`Scenario::config`]
//! lowers it onto an [`ExperimentConfig`] that the ordinary
//! [`PaperExperiment`](crate::PaperExperiment) pipeline runs, so every
//! cell exercises exactly the code path the paper reproduction uses. The
//! paper's own setting is one cell ([`Scenario::paper_cell`]): the single
//! power channel, the two RF-leak Trojans, the typical corner and the
//! paper's technology drift — running it reproduces Table 1 bit-for-bit.
//! The `sweep` bench bin runs the other cells of the grid at 16 seeds.
//!
//! Determinism: a lowered cell is a pure function of `(scenario, base
//! config, seed)`, and the run it configures is bit-identical at any
//! thread count.

use sidefp_chip::channel::{ChannelSpec, ChannelStack};
use sidefp_chip::trojan::TrojanSuite;
use sidefp_silicon::corner::{compose_shifts, TechnologyPreset};
use sidefp_silicon::{PcmKind, PcmSuite, ProcessCorner};

use crate::config::{ExperimentConfig, RegressorKind};

/// One cell of the scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Cell identifier used in reports (e.g. `power+delay/dormant/ff/paper`).
    pub name: String,
    /// The tester's side-channel stack.
    pub channels: ChannelStack,
    /// The Trojan variants fabricated per die.
    pub suite: TrojanSuite,
    /// The fab's process corner.
    pub corner: ProcessCorner,
    /// The model-vs-fab technology drift preset.
    pub preset: TechnologyPreset,
}

impl Scenario {
    /// Builds a cell, deriving its report name from the parts:
    /// `channels/classes/corner/preset` (a genuine-only suite reads
    /// "genuine").
    pub fn new(
        channels: ChannelStack,
        suite: TrojanSuite,
        corner: ProcessCorner,
        preset: TechnologyPreset,
    ) -> Self {
        let classes = suite.infested_classes();
        let class_part = if classes.is_empty() {
            "genuine".to_string()
        } else {
            classes
                .iter()
                .map(|c| c.label())
                .collect::<Vec<_>>()
                .join("+")
        };
        let name = format!(
            "{}/{}/{}/{}",
            channels.channel_names().join("+"),
            class_part,
            corner.label(),
            preset.name,
        );
        Scenario {
            name,
            channels,
            suite,
            corner,
            preset,
        }
    }

    /// The paper's own cell: power-only measurement of the two RF-leak
    /// Trojans at the typical corner under the paper's technology drift.
    /// Run with the default config and seed it reproduces Table 1 exactly.
    pub fn paper_cell(base: &ExperimentConfig) -> Self {
        Self::new(
            ChannelStack::power_only(base.meter.clone()),
            TrojanSuite::rf_leaks(base.amplitude_delta, base.frequency_delta),
            ProcessCorner::Typical,
            TechnologyPreset::paper(),
        )
    }

    /// `true` for a cell measuring more than the paper's single power
    /// channel.
    pub(crate) fn is_multi_parameter(&self) -> bool {
        let specs = self.channels.channels();
        specs.len() > 1 || !matches!(specs.first(), Some(ChannelSpec::Power(_)))
    }

    /// Lowers the cell onto a configuration: the base experiment sizing
    /// with this cell's stack, suite, corner-composed drift, sigma scales
    /// and seed.
    ///
    /// Multi-parameter cells additionally swap three settings that the
    /// paper calibrated for its power-only, `n_p = 1` case:
    ///
    /// - the PCM suite widens to [`characterization_pcm_suite`] — a lone
    ///   path-delay monitor leaves the IDDT and spectral channels' process
    ///   dependence (oxide capacitance, leakage) unexplained, so predicted
    ///   golden populations collapse to near-zero spread in those columns
    ///   and every genuine device false-alarms;
    /// - MARS drops to an additive model (`max_interaction: 1`) — with
    ///   several strongly collinear monitors, pairwise hinge products pick
    ///   up huge canceling coefficients in-sample and explode when
    ///   extrapolated to the shifted silicon operating point (in log space
    ///   the overflow is catastrophic);
    /// - the enhanced-boundary kernel width falls back to the median
    ///   heuristic (`gamma: None`) — the tuned `gamma = 0.5` is an
    ///   explicit 6-dimensional setting; at higher fingerprint widths it
    ///   shrinks the trusted region to nothing.
    ///
    /// The paper cell is power-only, so none of these fire and its lowered
    /// configuration is exactly the seed configuration.
    pub fn config(&self, base: &ExperimentConfig, seed: u64) -> ExperimentConfig {
        let mut cfg = base.clone();
        cfg.seed = seed;
        cfg.channels = Some(self.channels.clone());
        cfg.trojan_suite = Some(self.suite.clone());
        cfg.process_shift = compose_shifts(self.preset.drift, self.corner.shift());
        cfg.model_sigma_scale = self.preset.model_sigma_scale;
        cfg.fab_sigma_scale = self.preset.fab_sigma_scale;
        if self.is_multi_parameter() {
            cfg.pcm_suite = characterization_pcm_suite();
            if let RegressorKind::Mars(mars) = &mut cfg.regressor {
                mars.max_interaction = 1;
            }
            cfg.enhanced_boundary.gamma = None;
        }
        cfg
    }
}

/// The silicon-characterization PCM suite paired with multi-parameter
/// stacks (`n_p = 3`): the paper's path-delay monitor plus a leakage
/// monitor and a kerf MOS capacitor, so every fingerprint channel's
/// process dependence (drive strength, subthreshold leakage, oxide
/// capacitance) has a monitor that observes it.
pub fn characterization_pcm_suite() -> PcmSuite {
    PcmSuite::new(
        vec![
            PcmKind::PathDelay,
            PcmKind::LeakageCurrent,
            PcmKind::CapacitorMonitor,
        ],
        0.002,
    )
    .expect("non-empty pcm suite")
}

/// The named channel stacks the matrix sweeps, from the paper's single
/// power channel up to the full multi-parameter stack.
///
/// The power channel always measures through `meter` so the power-only
/// set is the paper's tester.
pub fn channel_sets(meter: &sidefp_chip::measurement::SideChannelMeter) -> Vec<ChannelStack> {
    use sidefp_chip::channel::{DelayChannel, PowerChannel, SpectralChannel, SupplyCurrentChannel};
    let power = ChannelSpec::Power(PowerChannel {
        meter: meter.clone(),
    });
    vec![
        ChannelStack::power_only(meter.clone()),
        ChannelStack::new(vec![
            power.clone(),
            ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
        ])
        .expect("non-empty stack"),
        ChannelStack::new(vec![
            power.clone(),
            ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
            ChannelSpec::Delay(DelayChannel::default()),
        ])
        .expect("non-empty stack"),
        ChannelStack::new(vec![
            power,
            ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
            ChannelSpec::Delay(DelayChannel::default()),
            ChannelSpec::Spectral(SpectralChannel::default()),
        ])
        .expect("non-empty stack"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PaperExperiment;
    use sidefp_chip::channel::{ChannelSpec, DelayChannel, SupplyCurrentChannel};
    use sidefp_chip::measurement::SideChannelMeter;

    fn tiny_base() -> ExperimentConfig {
        ExperimentConfig {
            chips: 10,
            mc_samples: 40,
            kde_samples: 1200,
            ..Default::default()
        }
    }

    #[test]
    fn names_are_derived_from_the_parts() {
        let base = tiny_base();
        let cell = Scenario::paper_cell(&base);
        assert_eq!(cell.name, "power/always-on/tt/paper");
        let dormant = Scenario::new(
            ChannelStack::new(vec![
                ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
                ChannelSpec::Delay(DelayChannel::default()),
            ])
            .unwrap(),
            TrojanSuite::dormant(1000),
            sidefp_silicon::ProcessCorner::FastFast,
            TechnologyPreset::mature(),
        );
        assert_eq!(dormant.name, "iddt+delay/dormant/ff/mature");
    }

    #[test]
    fn paper_cell_config_is_the_default_config() {
        // The paper scenario must lower onto exactly the configuration the
        // seed experiment runs — same shift, sigma scales, device count —
        // so Table 1 is one grid cell, not a near-miss of it.
        let base = ExperimentConfig::default();
        let cfg = Scenario::paper_cell(&base).config(&base, base.seed);
        assert_eq!(cfg.process_shift, base.process_shift);
        assert_eq!(cfg.model_sigma_scale, base.model_sigma_scale);
        assert_eq!(cfg.fab_sigma_scale, base.fab_sigma_scale);
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.device_count(), base.device_count());
        assert_eq!(
            cfg.trojan_variants()
                .iter()
                .map(|(t, l, tag)| (*t, *l, *tag))
                .collect::<Vec<_>>(),
            base.trojan_variants()
                .iter()
                .map(|(t, l, tag)| (*t, *l, *tag))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn paper_cell_reproduces_the_paper_run_bit_for_bit() {
        let base = tiny_base();
        let direct = PaperExperiment::new(base.clone()).unwrap().run().unwrap();
        let cfg = Scenario::paper_cell(&base).config(&base, base.seed);
        assert_eq!(cfg.device_count(), 30);
        let cell = PaperExperiment::new(cfg)
            .unwrap()
            .run_with_artifacts()
            .unwrap();
        assert_eq!(cell.result.table1, direct.table1);
        assert_eq!(cell.silicon.dutts.fingerprints().ncols(), 6);
    }

    #[test]
    fn same_cell_same_seed_is_bit_identical() {
        let base = tiny_base();
        let cell = Scenario::new(
            ChannelStack::new(vec![
                ChannelSpec::Power(sidefp_chip::channel::PowerChannel {
                    meter: SideChannelMeter::default(),
                }),
                ChannelSpec::Delay(DelayChannel::default()),
            ])
            .unwrap(),
            TrojanSuite::dormant(1500),
            sidefp_silicon::ProcessCorner::SlowSlow,
            TechnologyPreset::mature(),
        );
        let run = |seed| {
            let cfg = cell.config(&base, seed);
            PaperExperiment::new(cfg).unwrap().run().unwrap()
        };
        assert_eq!(run(7), run(7));
        // Different seeds lower to different draws.
        assert_ne!(cell.config(&base, 7).seed, cell.config(&base, 8).seed);
    }

    #[test]
    fn cells_are_thread_count_invariant() {
        let mut one = tiny_base();
        one.parallelism.threads = 1;
        let mut eight = tiny_base();
        eight.parallelism.threads = 8;
        let cell = Scenario::new(
            ChannelStack::new(vec![
                ChannelSpec::SupplyCurrent(SupplyCurrentChannel::default()),
                ChannelSpec::Delay(DelayChannel::default()),
            ])
            .unwrap(),
            TrojanSuite::dormant(1000),
            sidefp_silicon::ProcessCorner::Typical,
            TechnologyPreset::paper(),
        );
        let run = |base: &ExperimentConfig| {
            let cfg = cell.config(base, 11);
            PaperExperiment::new(cfg).unwrap().run().unwrap().table1
        };
        assert_eq!(run(&one), run(&eight));
    }

    #[test]
    fn channel_sets_span_the_grid() {
        let sets = channel_sets(&SideChannelMeter::default());
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0].channel_names(), vec!["power"]);
        assert_eq!(
            sets[3].channel_names(),
            vec!["power", "iddt", "delay", "spectral"]
        );
    }
}
