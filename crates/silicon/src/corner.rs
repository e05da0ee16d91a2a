//! Process corners and technology-shift presets: named operating points
//! for scenario-matrix experiments.
//!
//! A *corner* is a deliberate systematic offset of the latent process
//! factors — the classic tt/ff/ss/fs skew lots a fab runs for
//! characterization. A *technology preset* bundles a corner-independent
//! model-vs-fab drift with sigma scalings, standing in for "how stale is
//! the SPICE model" at different points of a process's life.
//!
//! Both are expressed through [`ProcessShift`] so they compose with the
//! existing [`Foundry`](crate::Foundry) machinery: the Monte Carlo
//! process model draws every die from the shifted, sigma-scaled factor
//! law they describe.

use crate::foundry::ProcessShift;
use crate::params::ProcessFactor;

/// A named process corner, expressed as a latent-factor skew in sigma.
///
/// The sign conventions follow the factor loadings: a positive implant
/// offset *raises* threshold voltages and degrades mobility (slower
/// devices), a positive litho offset lengthens gates (slower devices) —
/// so fast corners carry negative implant/litho skews.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ProcessCorner {
    /// Typical-typical: the unskewed operating point.
    Typical,
    /// Fast-fast: both implants hot, aggressive litho.
    FastFast,
    /// Slow-slow: both implants cold, relaxed litho.
    SlowSlow,
    /// Skewed: fast NMOS, slow PMOS (the ratioed-logic stress corner).
    FastNSlowP,
}

impl ProcessCorner {
    /// All corners, in canonical order.
    pub const ALL: [ProcessCorner; 4] = [
        ProcessCorner::Typical,
        ProcessCorner::FastFast,
        ProcessCorner::SlowSlow,
        ProcessCorner::FastNSlowP,
    ];

    /// Conventional two-letter corner label ("tt", "ff", "ss", "fs").
    pub fn label(&self) -> &'static str {
        match self {
            ProcessCorner::Typical => "tt",
            ProcessCorner::FastFast => "ff",
            ProcessCorner::SlowSlow => "ss",
            ProcessCorner::FastNSlowP => "fs",
        }
    }

    /// The corner's factor skew in sigma units.
    pub fn shift(&self) -> ProcessShift {
        match self {
            ProcessCorner::Typical => ProcessShift::none(),
            ProcessCorner::FastFast => ProcessShift::on_factor(ProcessFactor::ImplantN, -1.5)
                .and(ProcessFactor::ImplantP, -1.5)
                .and(ProcessFactor::Litho, -1.0),
            ProcessCorner::SlowSlow => ProcessShift::on_factor(ProcessFactor::ImplantN, 1.5)
                .and(ProcessFactor::ImplantP, 1.5)
                .and(ProcessFactor::Litho, 1.0),
            ProcessCorner::FastNSlowP => ProcessShift::on_factor(ProcessFactor::ImplantN, -1.5)
                .and(ProcessFactor::ImplantP, 1.5),
        }
    }
}

/// Adds two factor shifts (sigma offsets are additive by construction).
pub fn compose_shifts(a: ProcessShift, b: ProcessShift) -> ProcessShift {
    let mut out = ProcessShift::none();
    for f in ProcessFactor::ALL {
        out = out.and(f, a.offset(f) + b.offset(f));
    }
    out
}

/// A technology-lifecycle preset: the corner-independent drift between the
/// trusted simulation model and the fab, plus how tight each side's
/// statistics are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyPreset {
    /// Preset identifier used in scenario reports.
    pub name: &'static str,
    /// Systematic model-vs-fab drift (applied to the fab only).
    pub drift: ProcessShift,
    /// Sigma scaling of the trusted simulation model's statistics.
    pub model_sigma_scale: f64,
    /// Sigma scaling of the fab's actual statistics.
    pub fab_sigma_scale: f64,
}

impl TechnologyPreset {
    /// The paper's setting: the fab has drifted by several sigma on every
    /// front-end factor since the model was calibrated, and the model's
    /// sigma is optimistically tight (0.8×).
    pub fn paper() -> Self {
        TechnologyPreset {
            name: "paper",
            drift: ProcessShift::on_factor(ProcessFactor::ImplantN, 4.2)
                .and(ProcessFactor::ImplantP, 3.7)
                .and(ProcessFactor::Oxide, -2.85)
                .and(ProcessFactor::Litho, 2.85)
                .and(ProcessFactor::Beol, 1.5),
            model_sigma_scale: 0.8,
            fab_sigma_scale: 1.0,
        }
    }

    /// A mature node: freshly recalibrated model, mild residual drift.
    pub fn mature() -> Self {
        TechnologyPreset {
            name: "mature",
            drift: ProcessShift::on_factor(ProcessFactor::ImplantN, 1.0)
                .and(ProcessFactor::Oxide, -0.5),
            model_sigma_scale: 0.95,
            fab_sigma_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foundry::Foundry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn corner_labels_and_shifts() {
        assert_eq!(ProcessCorner::Typical.label(), "tt");
        assert_eq!(ProcessCorner::FastFast.label(), "ff");
        assert_eq!(ProcessCorner::SlowSlow.label(), "ss");
        assert_eq!(ProcessCorner::FastNSlowP.label(), "fs");
        assert_eq!(ProcessCorner::Typical.shift(), ProcessShift::none());
        // ff and ss are mirror images.
        for f in ProcessFactor::ALL {
            assert_eq!(
                ProcessCorner::FastFast.shift().offset(f),
                -ProcessCorner::SlowSlow.shift().offset(f),
            );
        }
        // Fast NMOS = lower implant dose (lower VthN), slow PMOS = higher.
        assert!(
            ProcessCorner::FastNSlowP
                .shift()
                .offset(ProcessFactor::ImplantN)
                < 0.0
        );
        assert!(
            ProcessCorner::FastNSlowP
                .shift()
                .offset(ProcessFactor::ImplantP)
                > 0.0
        );
    }

    #[test]
    fn shifts_compose_additively() {
        let a = ProcessShift::on_factor(ProcessFactor::Oxide, 1.0);
        let b = ProcessShift::on_factor(ProcessFactor::Oxide, -0.25).and(ProcessFactor::Beol, 2.0);
        let c = compose_shifts(a, b);
        assert!((c.offset(ProcessFactor::Oxide) - 0.75).abs() < 1e-12);
        assert!((c.offset(ProcessFactor::Beol) - 2.0).abs() < 1e-12);
        assert_eq!(c.offset(ProcessFactor::Litho), 0.0);
    }

    #[test]
    fn presets_build_valid_foundries() {
        // The model side runs unshifted; the fab runs preset drift plus
        // corner skew — how a scenario cell lowers onto the pipeline config.
        for preset in [TechnologyPreset::paper(), TechnologyPreset::mature()] {
            let model = Foundry::nominal()
                .with_sigma_scale(preset.model_sigma_scale)
                .unwrap();
            assert_eq!(model.shift(), ProcessShift::none());
            for corner in ProcessCorner::ALL {
                let fab = Foundry::with_shift(compose_shifts(preset.drift, corner.shift()))
                    .with_sigma_scale(preset.fab_sigma_scale)
                    .unwrap();
                assert_eq!(
                    fab.shift(),
                    compose_shifts(preset.drift, corner.shift()),
                    "{} {}",
                    preset.name,
                    corner.label()
                );
            }
        }
    }

    #[test]
    fn corner_moves_the_fabricated_population() {
        // An ff lot must be electrically distinct from the tt lot under the
        // same preset: lower thresholds on average.
        use crate::params::ProcessParameter;
        let preset = TechnologyPreset::mature();
        let mean_vth = |corner: ProcessCorner, seed: u64| {
            let foundry = Foundry::with_shift(compose_shifts(preset.drift, corner.shift()))
                .with_sigma_scale(preset.fab_sigma_scale)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 200;
            (0..n)
                .map(|_| {
                    foundry
                        .fabricate_die(&mut rng)
                        .process()
                        .get(ProcessParameter::VthN)
                })
                .sum::<f64>()
                / n as f64
        };
        let tt = mean_vth(ProcessCorner::Typical, 1);
        let ff = mean_vth(ProcessCorner::FastFast, 1);
        let ss = mean_vth(ProcessCorner::SlowSlow, 1);
        assert!(ff < tt, "ff VthN {ff} should undercut tt {tt}");
        assert!(ss > tt, "ss VthN {ss} should exceed tt {tt}");
    }

    #[test]
    fn paper_preset_matches_seed_configuration() {
        // The drift numbers are load-bearing: they must equal the shift the
        // core experiment config has always used.
        let d = TechnologyPreset::paper().drift;
        assert!((d.offset(ProcessFactor::ImplantN) - 4.2).abs() < 1e-12);
        assert!((d.offset(ProcessFactor::ImplantP) - 3.7).abs() < 1e-12);
        assert!((d.offset(ProcessFactor::Oxide) + 2.85).abs() < 1e-12);
        assert!((d.offset(ProcessFactor::Litho) - 2.85).abs() < 1e-12);
        assert!((d.offset(ProcessFactor::Beol) - 1.5).abs() < 1e-12);
        assert!((TechnologyPreset::paper().model_sigma_scale - 0.8).abs() < 1e-12);
    }
}
