//! Run-health reporting: what the degradation-aware pipeline repaired,
//! quarantined or rescued instead of panicking.
//!
//! A [`RunHealth`] is attached to every
//! [`ExperimentResult`](crate::report::ExperimentResult). A clean run (no
//! injected faults, healthy solvers) reports all-zero counters, so the
//! report only draws attention when something actually degraded.

use std::fmt;

use sidefp_stats::SolverHealth;

/// Why a device was removed from the measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// Too many unrepairable readings: the device is effectively dead.
    DeadDevice,
    /// Exact duplicate of an earlier device row (retest-logging artifact).
    DuplicateDevice,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::DeadDevice => f.write_str("dead device"),
            QuarantineReason::DuplicateDevice => f.write_str("duplicate device"),
        }
    }
}

/// One quarantined device: its original row index and the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedDevice {
    /// Row index in the *raw* (pre-sanitization) measurement matrices.
    pub index: usize,
    /// Why the device was removed.
    pub reason: QuarantineReason,
}

/// Sanitizer-side health: what happened to the measurement stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasurementHealth {
    /// Devices entering the sanitizer.
    pub devices_in: usize,
    /// Devices surviving quarantine.
    pub devices_kept: usize,
    /// Quarantined devices, in raw row order.
    pub quarantined: Vec<QuarantinedDevice>,
    /// Non-finite or non-positive readings repaired to the column median.
    pub repaired_readings: usize,
    /// Finite outlier readings clamped by the median/MAD winsorizer.
    pub winsorized_readings: usize,
    /// Faults injected by the configured [`FaultPlan`](sidefp_faults::FaultPlan)
    /// (0 when no fault injection is active).
    pub injected_faults: usize,
}

impl MeasurementHealth {
    /// `true` if the sanitizer changed nothing.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.repaired_readings == 0
            && self.winsorized_readings == 0
            && self.injected_faults == 0
    }

    /// Number of devices quarantined for the given reason.
    pub fn quarantined_for(&self, reason: QuarantineReason) -> usize {
        self.quarantined
            .iter()
            .filter(|q| q.reason == reason)
            .count()
    }
}

/// Tiered-recalibration accounting for a streaming wafer-lot run: how many
/// lots each policy tier absorbed, and how often the incremental path had
/// to escalate or hand off to the full-refit fallback.
///
/// Attached to a [`LotStream`](crate::stages::recalibrate::LotStream); the
/// counters are exact (every processed lot lands in exactly one of
/// `accepted` / `recalibrated` / `refitted`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecalHealth {
    /// Lots processed by the stream (including the calibration lot).
    pub lots: usize,
    /// Lots accepted without touching the fitted state (in control).
    pub accepted: usize,
    /// Lots absorbed by the incremental recalibration tier.
    pub recalibrated: usize,
    /// Lots that took a full from-scratch refit (the calibration lot,
    /// severity beyond the refit limit, or an incremental self-check
    /// failure).
    pub refitted: usize,
    /// Warm-started solves that exhausted their tight iteration budget and
    /// were escalated to the full budget.
    pub escalations: usize,
    /// Incremental recalibrations discarded by the self-check (each such
    /// lot also counts in `refitted`).
    pub selfcheck_failures: usize,
}

impl RecalHealth {
    /// `true` if every lot after calibration was accepted as-is.
    pub fn is_clean(&self) -> bool {
        self.recalibrated == 0 && self.refitted <= 1 && self.selfcheck_failures == 0
    }

    /// Renders the counter block as indented plain text.
    pub fn render(&self) -> String {
        let mut out = format!("recalibration health ({} lots):\n", self.lots);
        for (label, n) in [
            ("accepted              ", self.accepted),
            ("recalibrated          ", self.recalibrated),
            ("refitted              ", self.refitted),
            ("warm-budget escalations", self.escalations),
            ("self-check failures   ", self.selfcheck_failures),
        ] {
            if n > 0 {
                out.push_str(&format!("  {label} {n}\n"));
            }
        }
        out
    }
}

/// Full degradation report of one experiment run: the measurement-stream
/// half (sanitizer) and the solver half (numerical rescues).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealth {
    /// What the measurement sanitizer repaired and quarantined.
    pub measurement: MeasurementHealth,
    /// Which numerical solvers needed retries or relaxed acceptance.
    pub solvers: SolverHealth,
}

impl RunHealth {
    /// `true` if nothing degraded anywhere in the run.
    pub fn is_clean(&self) -> bool {
        self.measurement.is_clean() && self.solvers.is_clean()
    }

    /// Renders the health report as indented plain text (one line per
    /// non-zero counter; a single "clean" line when nothing degraded).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "run health: clean (no repairs, quarantines or solver fallbacks)\n".into();
        }
        let mut out = String::from("run health:\n");
        let m = &self.measurement;
        if m.injected_faults > 0 {
            out.push_str(&format!("  injected faults        {}\n", m.injected_faults));
        }
        if !m.quarantined.is_empty() {
            out.push_str(&format!(
                "  quarantined devices    {} of {} ({} dead, {} duplicate)\n",
                m.quarantined.len(),
                m.devices_in,
                m.quarantined_for(QuarantineReason::DeadDevice),
                m.quarantined_for(QuarantineReason::DuplicateDevice),
            ));
        }
        if m.repaired_readings > 0 {
            out.push_str(&format!(
                "  repaired readings      {}\n",
                m.repaired_readings
            ));
        }
        if m.winsorized_readings > 0 {
            out.push_str(&format!(
                "  winsorized readings    {}\n",
                m.winsorized_readings
            ));
        }
        let s = &self.solvers;
        for (label, n) in [
            ("cholesky ridge retries", s.cholesky_retries),
            ("smo relaxed accepts   ", s.smo_relaxed),
            ("smo non-converged     ", s.smo_nonconverged),
            ("qp relaxed accepts    ", s.qp_relaxed),
            ("qp non-converged      ", s.qp_nonconverged),
            ("kde pilot floors      ", s.kde_pilot_floors),
        ] {
            if n > 0 {
                out.push_str(&format!("  {label} {n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_health_is_clean() {
        let h = RunHealth::default();
        assert!(h.is_clean());
        assert!(h.render().contains("clean"));
    }

    #[test]
    fn render_lists_only_nonzero_counters() {
        let mut h = RunHealth::default();
        h.measurement.devices_in = 30;
        h.measurement.devices_kept = 28;
        h.measurement.quarantined = vec![
            QuarantinedDevice {
                index: 3,
                reason: QuarantineReason::DeadDevice,
            },
            QuarantinedDevice {
                index: 9,
                reason: QuarantineReason::DuplicateDevice,
            },
        ];
        h.measurement.repaired_readings = 4;
        h.solvers.cholesky_retries = 1;
        let text = h.render();
        assert!(text.contains("quarantined devices    2 of 30 (1 dead, 1 duplicate)"));
        assert!(text.contains("repaired readings      4"));
        assert!(text.contains("cholesky ridge retries 1"));
        assert!(!text.contains("winsorized"));
        assert!(!text.contains("smo"));
        assert!(!h.is_clean());
        assert_eq!(
            h.measurement.quarantined_for(QuarantineReason::DeadDevice),
            1
        );
    }

    #[test]
    fn recal_health_renders_nonzero_tiers_only() {
        let mut h = RecalHealth::default();
        assert!(h.is_clean());
        h.lots = 6;
        h.accepted = 3;
        h.recalibrated = 2;
        h.refitted = 1;
        let text = h.render();
        assert!(text.contains("6 lots"));
        assert!(text.contains("accepted               3"));
        assert!(text.contains("recalibrated           2"));
        assert!(!text.contains("escalations"));
        assert!(!h.is_clean());
        let calm = RecalHealth {
            lots: 3,
            accepted: 2,
            refitted: 1, // the calibration lot
            ..Default::default()
        };
        assert!(calm.is_clean());
    }

    #[test]
    fn injected_faults_mark_the_run_degraded() {
        let mut h = RunHealth::default();
        h.measurement.injected_faults = 5;
        assert!(!h.is_clean());
        assert!(h.render().contains("injected faults        5"));
    }
}
