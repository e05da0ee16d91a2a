use std::fmt;

/// Ground-truth / predicted label of a device under Trojan test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionLabel {
    /// Device is (or is predicted) free of hardware Trojans.
    TrojanFree,
    /// Device is (or is predicted) Trojan-infested.
    TrojanInfested,
}

impl fmt::Display for DetectionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionLabel::TrojanFree => write!(f, "Trojan-free"),
            DetectionLabel::TrojanInfested => write!(f, "Trojan-infested"),
        }
    }
}

/// Confusion counts using the **paper's** (inverted) FP/FN conventions:
///
/// - `FP` = Trojan-infested devices predicted Trojan-free (**missed
///   Trojans**, Eq. 1),
/// - `FN` = Trojan-free devices predicted Trojan-infested (**false alarms**,
///   Eq. 2).
///
/// The struct tracks the class totals so results print in the paper's
/// `x/80`, `y/40` style.
///
/// # Example
///
/// ```
/// use sidefp_stats::{ConfusionCounts, DetectionLabel};
///
/// let mut counts = ConfusionCounts::new();
/// counts.record(DetectionLabel::TrojanInfested, DetectionLabel::TrojanFree);
/// counts.record(DetectionLabel::TrojanFree, DetectionLabel::TrojanFree);
/// assert_eq!(counts.false_positives(), 1); // one missed Trojan
/// assert_eq!(counts.false_negatives(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    missed_trojans: usize,
    false_alarms: usize,
    infested_total: usize,
    free_total: usize,
}

impl ConfusionCounts {
    /// Creates an empty tally.
    pub fn new() -> Self {
        ConfusionCounts::default()
    }

    /// Records one device's ground truth and prediction.
    pub fn record(&mut self, actual: DetectionLabel, predicted: DetectionLabel) {
        match actual {
            DetectionLabel::TrojanInfested => {
                self.infested_total += 1;
                if predicted == DetectionLabel::TrojanFree {
                    self.missed_trojans += 1;
                }
            }
            DetectionLabel::TrojanFree => {
                self.free_total += 1;
                if predicted == DetectionLabel::TrojanInfested {
                    self.false_alarms += 1;
                }
            }
        }
    }

    /// Missed Trojans (the paper's FP, Eq. 1).
    pub fn false_positives(&self) -> usize {
        self.missed_trojans
    }

    /// False alarms on Trojan-free devices (the paper's FN, Eq. 2).
    pub fn false_negatives(&self) -> usize {
        self.false_alarms
    }

    /// Number of Trojan-infested devices tallied.
    pub fn infested_total(&self) -> usize {
        self.infested_total
    }

    /// Number of Trojan-free devices tallied.
    pub fn free_total(&self) -> usize {
        self.free_total
    }

    /// Missed-Trojan rate in `[0, 1]`; `0` when no infested devices seen.
    pub fn false_positive_rate(&self) -> f64 {
        if self.infested_total == 0 {
            0.0
        } else {
            self.missed_trojans as f64 / self.infested_total as f64
        }
    }

    /// False-alarm rate in `[0, 1]`; `0` when no Trojan-free devices seen.
    pub fn false_negative_rate(&self) -> f64 {
        if self.free_total == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.free_total as f64
        }
    }

    /// Overall accuracy across both classes.
    pub fn accuracy(&self) -> f64 {
        let total = self.infested_total + self.free_total;
        if total == 0 {
            return 0.0;
        }
        let correct = total - self.missed_trojans - self.false_alarms;
        correct as f64 / total as f64
    }
}

impl fmt::Display for ConfusionCounts {
    /// Prints in the paper's Table-1 style: `FP a/b  FN c/d`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FP {}/{}  FN {}/{}",
            self.missed_trojans, self.infested_total, self.false_alarms, self.free_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DetectionLabel::{TrojanFree as Free, TrojanInfested as Infested};

    fn tally<const N: usize>(pairs: [(DetectionLabel, DetectionLabel); N]) -> ConfusionCounts {
        let mut counts = ConfusionCounts::new();
        for (actual, predicted) in pairs {
            counts.record(actual, predicted);
        }
        counts
    }

    #[test]
    fn paper_convention_fp_counts_missed_trojans() {
        let counts = tally([
            (Infested, Free),     // missed Trojan → FP
            (Infested, Infested), // caught
            (Free, Infested),     // false alarm → FN
            (Free, Free),         // correct
        ]);
        assert_eq!(counts.false_positives(), 1);
        assert_eq!(counts.false_negatives(), 1);
        assert_eq!(counts.infested_total(), 2);
        assert_eq!(counts.free_total(), 2);
        assert_eq!(counts.accuracy(), 0.5);
    }

    #[test]
    fn rates() {
        let counts = tally([
            (Infested, Free),
            (Infested, Free),
            (Infested, Infested),
            (Infested, Infested),
            (Free, Free),
        ]);
        assert!((counts.false_positive_rate() - 0.5).abs() < 1e-12);
        assert_eq!(counts.false_negative_rate(), 0.0);
    }

    #[test]
    fn empty_counts_are_zero() {
        let counts = ConfusionCounts::new();
        assert_eq!(counts.false_positive_rate(), 0.0);
        assert_eq!(counts.false_negative_rate(), 0.0);
        assert_eq!(counts.accuracy(), 0.0);
    }

    #[test]
    fn display_matches_table_style() {
        let counts = tally([(Infested, Infested), (Free, Infested)]);
        assert_eq!(counts.to_string(), "FP 0/1  FN 1/1");
    }

    #[test]
    fn labels_display() {
        assert_eq!(Free.to_string(), "Trojan-free");
        assert_eq!(Infested.to_string(), "Trojan-infested");
    }
}
