//! Device-level electrical models: the "SPICE equations" of the synthetic
//! fab.
//!
//! All models are smooth closed forms of the [`ProcessPoint`] parameters, so
//! both PCM structures and the wireless-IC analog behaviour derive from the
//! same underlying physics — the property that makes PCM→fingerprint
//! regression possible (paper §2.1).
//!
//! Units are arbitrary-but-consistent: delays in nanoseconds, currents in
//! microamps, powers normalized so nominal UWB output is ~1.0.

use crate::environment::Environment;
use crate::params::{ProcessParameter, ProcessPoint};

/// Supply voltage of the 350 nm platform \[V\].
pub const VDD: f64 = 3.3;

/// Velocity-saturation exponent of the alpha-power law for this node.
pub const ALPHA: f64 = 1.3;

/// Thermal voltage at room temperature \[V\].
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Subthreshold slope factor.
pub const SUBTHRESHOLD_N: f64 = 1.5;

/// Propagation delay of a single CMOS inverter stage \[ns\],
/// alpha-power law: `τ ∝ L·C_L·V_DD / (μ·(V_DD − V_th)^α)` averaged over
/// both transitions (NMOS pull-down, PMOS pull-up).
///
/// # Example
///
/// ```
/// use sidefp_silicon::device_models::gate_delay;
/// use sidefp_silicon::params::ProcessPoint;
///
/// let d = gate_delay(&ProcessPoint::nominal());
/// assert!(d > 0.0 && d < 1.0); // sub-nanosecond inverter at 350 nm
/// ```
pub fn gate_delay(process: &ProcessPoint) -> f64 {
    gate_delay_at(process, &Environment::nominal())
}

/// [`gate_delay`] under explicit measurement conditions: temperature moves
/// threshold voltage and mobility, the supply moves the overdrive.
pub fn gate_delay_at(process: &ProcessPoint, env: &Environment) -> f64 {
    let l = process.get(ProcessParameter::GateLength);
    let tox = process.get(ProcessParameter::OxideThickness);
    // Load capacitance tracks oxide thickness inversely (Cox = εox/tox);
    // use nominal-relative scaling.
    let c_load = ProcessParameter::OxideThickness.nominal() / tox;
    let vdd = env.supply_v();

    let pull = |mobility: f64, vth: f64| -> f64 {
        let mobility = mobility * env.mobility_factor();
        let vth = vth + env.vth_shift();
        let overdrive = (vdd - vth).max(0.1);
        l / ProcessParameter::GateLength.nominal() * c_load * vdd
            / (mobility * overdrive.powf(ALPHA))
    };
    let n_delay = pull(
        process.get(ProcessParameter::MobilityN),
        process.get(ProcessParameter::VthN),
    );
    let p_delay = pull(
        process.get(ProcessParameter::MobilityP),
        process.get(ProcessParameter::VthP),
    );
    // Normalize to ~0.1 ns nominal stage delay.
    0.5 * (n_delay + p_delay) * 0.1 * (VDD - 0.575_f64).powf(ALPHA) / VDD
}

/// Subthreshold leakage current of a unit-width NMOS \[µA\]:
/// `I ∝ μ·exp(−V_th / (n·v_T))`.
pub fn subthreshold_leakage(process: &ProcessPoint) -> f64 {
    subthreshold_leakage_at(process, &Environment::nominal())
}

/// [`subthreshold_leakage`] under explicit measurement conditions; leakage
/// grows exponentially with temperature through both the threshold drop
/// and the thermal voltage.
pub fn subthreshold_leakage_at(process: &ProcessPoint, env: &Environment) -> f64 {
    let vth = process.get(ProcessParameter::VthN) + env.vth_shift();
    let mobility = process.get(ProcessParameter::MobilityN) * env.mobility_factor();
    // Scale such that nominal leakage is ~1 µA for the monitor structure.
    let nominal_vth = ProcessParameter::VthN.nominal();
    mobility * ((nominal_vth - vth) / (SUBTHRESHOLD_N * env.thermal_voltage())).exp()
}

/// Saturation transconductance of a unit analog NMOS \[mS\]:
/// `g_m ∝ μ·C_ox·(W/L)·(V_GS − V_th)`.
pub fn transconductance(process: &ProcessPoint, vgs: f64) -> f64 {
    let vth = process.get(ProcessParameter::VthN);
    let mobility = process.get(ProcessParameter::MobilityN);
    let tox = process.get(ProcessParameter::OxideThickness);
    let l = process.get(ProcessParameter::GateLength);
    let cox = ProcessParameter::OxideThickness.nominal() / tox;
    let overdrive = (vgs - vth).max(0.0);
    mobility * cox * (ProcessParameter::GateLength.nominal() / l) * overdrive
}

/// Resonant tank frequency of the UWB output stage \[GHz\]:
/// `f = 1 / (2π√(LC))` with L, C tracking the analog passives.
pub fn tank_frequency(process: &ProcessPoint) -> f64 {
    let l = process.get(ProcessParameter::AnalogInd);
    let c = process.get(ProcessParameter::AnalogCap);
    // Nominal 4 GHz UWB band center.
    4.0 / (l * c).sqrt()
}

/// Output amplitude of the UWB pulse generator (normalized).
///
/// The 350 nm UWB transmitter is a digital edge-combining pulse generator:
/// the pulse swing tracks the drive strength of its output inverters into
/// the antenna load, i.e. the *inverse* of the CMOS gate delay, scaled by
/// the analog load resistance. This is what couples the transmission-power
/// side channel to the same process factors the digital path-delay PCM
/// observes — the physical basis of the paper's PCM→fingerprint
/// regression.
pub fn pa_amplitude(process: &ProcessPoint) -> f64 {
    pa_amplitude_at(process, &Environment::nominal())
}

/// [`pa_amplitude`] under explicit measurement conditions. The drive
/// reference stays the *nominal-environment* nominal device, so a hot
/// tester reads genuinely weaker pulses — exactly the mismatch the
/// environment ablation quantifies.
pub fn pa_amplitude_at(process: &ProcessPoint, env: &Environment) -> f64 {
    let drive = gate_delay(&ProcessPoint::nominal()) / gate_delay_at(process, env);
    drive * process.get(ProcessParameter::AnalogRes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ProcessParameter, ProcessPoint};

    #[test]
    fn nominal_gate_delay_is_sub_nanosecond() {
        let d = gate_delay(&ProcessPoint::nominal());
        assert!(d > 0.01 && d < 1.0, "delay {d} ns");
    }

    #[test]
    fn higher_vth_slows_gates() {
        let mut slow = ProcessPoint::nominal();
        slow.set(ProcessParameter::VthN, 0.60);
        slow.set(ProcessParameter::VthP, 0.75);
        assert!(gate_delay(&slow) > gate_delay(&ProcessPoint::nominal()));
    }

    #[test]
    fn higher_mobility_speeds_gates() {
        let mut fast = ProcessPoint::nominal();
        fast.set(ProcessParameter::MobilityN, 1.2);
        fast.set(ProcessParameter::MobilityP, 1.2);
        assert!(gate_delay(&fast) < gate_delay(&ProcessPoint::nominal()));
    }

    #[test]
    fn longer_gates_are_slower() {
        let mut long = ProcessPoint::nominal();
        long.set(ProcessParameter::GateLength, 0.40);
        assert!(gate_delay(&long) > gate_delay(&ProcessPoint::nominal()));
    }

    #[test]
    fn leakage_is_exponential_in_vth() {
        let nominal = subthreshold_leakage(&ProcessPoint::nominal());
        let mut low_vth = ProcessPoint::nominal();
        low_vth.set(ProcessParameter::VthN, 0.45);
        let leaky = subthreshold_leakage(&low_vth);
        // 50 mV shift at n·vT ≈ 39 mV → e^{1.29} ≈ 3.6x.
        let ratio = leaky / nominal;
        assert!(ratio > 3.0 && ratio < 4.5, "leakage ratio {ratio}");
    }

    #[test]
    fn transconductance_scales_with_overdrive() {
        let p = ProcessPoint::nominal();
        let g1 = transconductance(&p, 1.0);
        let g2 = transconductance(&p, 1.5);
        assert!(g2 > g1);
        // Below threshold: zero.
        assert_eq!(transconductance(&p, 0.3), 0.0);
    }

    #[test]
    fn tank_frequency_tracks_passives() {
        assert!((tank_frequency(&ProcessPoint::nominal()) - 4.0).abs() < 1e-12);
        let mut big_l = ProcessPoint::nominal();
        big_l.set(ProcessParameter::AnalogInd, 1.1);
        assert!(tank_frequency(&big_l) < 4.0);
    }

    #[test]
    fn pa_amplitude_nominal_is_one() {
        assert!((pa_amplitude(&ProcessPoint::nominal()) - 1.0).abs() < 1e-12);
        let mut strong = ProcessPoint::nominal();
        strong.set(ProcessParameter::MobilityN, 1.1);
        strong.set(ProcessParameter::MobilityP, 1.1);
        assert!(pa_amplitude(&strong) > 1.0);
    }

    #[test]
    fn hot_devices_are_slower_and_leakier() {
        use crate::environment::Environment;
        let hot = Environment::at_temperature(85.0).unwrap();
        let p = ProcessPoint::nominal();
        assert!(gate_delay_at(&p, &hot) > gate_delay(&p));
        assert!(subthreshold_leakage_at(&p, &hot) > subthreshold_leakage(&p));
        assert!(pa_amplitude_at(&p, &hot) < pa_amplitude(&p));
    }

    #[test]
    fn higher_supply_is_faster() {
        use crate::environment::Environment;
        let boosted = Environment::new(25.0, 3.6).unwrap();
        let p = ProcessPoint::nominal();
        assert!(gate_delay_at(&p, &boosted) < gate_delay(&p));
    }

    #[test]
    fn nominal_environment_matches_legacy_functions() {
        use crate::environment::Environment;
        let p = ProcessPoint::nominal();
        let env = Environment::nominal();
        assert_eq!(gate_delay(&p), gate_delay_at(&p, &env));
        assert_eq!(subthreshold_leakage(&p), subthreshold_leakage_at(&p, &env));
        assert_eq!(pa_amplitude(&p), pa_amplitude_at(&p, &env));
    }

    #[test]
    fn delay_and_amplitude_share_process_dependence() {
        // The crux of the paper: PCM delay and side-channel amplitude are
        // correlated through shared parameters. A fast corner (low Vth,
        // high mobility) must be fast AND strong.
        let mut fast = ProcessPoint::nominal();
        fast.set(ProcessParameter::VthN, 0.45);
        fast.set(ProcessParameter::MobilityN, 1.1);
        fast.set(ProcessParameter::MobilityP, 1.1);
        assert!(gate_delay(&fast) < gate_delay(&ProcessPoint::nominal()));
        assert!(pa_amplitude(&fast) > pa_amplitude(&ProcessPoint::nominal()));
    }
}
