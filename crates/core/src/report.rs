//! Experiment results: Table 1 rows and Figure 4 projections.

use std::fmt;

use sidefp_linalg::Matrix;
use sidefp_stats::ConfusionCounts;

use crate::health::RunHealth;

/// One row of the paper's Table 1: the detection metrics of a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Dataset/boundary label ("B1" … "B5", "golden").
    pub dataset: &'static str,
    /// FP/FN tally (paper conventions — FP counts missed Trojans).
    pub counts: ConfusionCounts,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} FP {:>2}/{:<3} FN {:>2}/{:<3}",
            self.dataset,
            self.counts.false_positives(),
            self.counts.infested_total(),
            self.counts.false_negatives(),
            self.counts.free_total()
        )
    }
}

/// One panel of Figure 4: a dataset's population and the measured devices,
/// both projected onto the dataset's top three principal components.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Panel {
    /// Panel letter ("a" … "f").
    pub label: &'static str,
    /// Which population the PCA was fitted on ("measured", "S1" … "S5").
    pub dataset: &'static str,
    /// Projected population samples (`≤ max_points × 3`); `None` for
    /// panel (a), which shows only the measured devices.
    pub population: Option<Matrix>,
    /// Projected measured fingerprints of the 120 devices (`n × 3`).
    pub devices: Matrix,
    /// Trojan variant tag per device row.
    pub variants: Vec<&'static str>,
    /// Explained-variance ratios of the three components.
    pub explained: [f64; 3],
}

/// Complete result of a paper-experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Rows B1–B5 in order.
    pub table1: Vec<Table1Row>,
    /// The golden-chip baseline row (reference \[12\] in the paper).
    pub golden_baseline: Table1Row,
    /// Figure 4 panels (a)–(f).
    pub fig4: Vec<Fig4Panel>,
    /// Degradation report: what the run repaired, quarantined or rescued
    /// (all-zero for a healthy run).
    pub health: RunHealth,
    /// Worker threads the run actually used: the configured parallelism
    /// clamped to the machine (see
    /// [`crate::ParallelismConfig::effective_threads`]).
    pub resolved_threads: usize,
}

impl ExperimentResult {
    /// Renders Table 1 in the paper's layout, plus the golden baseline.
    pub fn render_table1(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 1: Trojan detection metrics for each data set\n");
        out.push_str("---------------------------------------------------\n");
        out.push_str("boundary  FP (missed Trojans)   FN (false alarms)\n");
        for row in &self.table1 {
            out.push_str(&format!("{row}\n"));
        }
        out.push_str("---------------------------------------------------\n");
        out.push_str(&format!("{}  (reference [12])\n", self.golden_baseline));
        if !self.health.is_clean() {
            out.push('\n');
            out.push_str(&self.health.render());
        }
        out
    }

    /// The Table-1 row of a given boundary, if present.
    pub fn row(&self, dataset: &str) -> Option<&Table1Row> {
        self.table1.iter().find(|r| r.dataset == dataset)
    }

    /// Renders the full result as a GitHub-flavored-markdown report:
    /// Table 1 plus a per-panel Figure-4 summary.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "## Table 1 — Trojan detection metrics

",
        );
        out.push_str(
            "| boundary | FP (missed Trojans) | FN (false alarms) |
",
        );
        out.push_str(
            "|----------|--------------------:|------------------:|
",
        );
        for row in self
            .table1
            .iter()
            .chain(std::iter::once(&self.golden_baseline))
        {
            out.push_str(&format!(
                "| {} | {}/{} | {}/{} |
",
                row.dataset,
                row.counts.false_positives(),
                row.counts.infested_total(),
                row.counts.false_negatives(),
                row.counts.free_total(),
            ));
        }
        if !self.fig4.is_empty() {
            out.push_str(
                "
## Figure 4 — PCA panels

",
            );
            out.push_str(
                "| panel | dataset | population | PC1 var |
",
            );
            out.push_str(
                "|-------|---------|-----------:|--------:|
",
            );
            for panel in &self.fig4 {
                out.push_str(&format!(
                    "| ({}) | {} | {} | {:.1}% |
",
                    panel.label,
                    panel.dataset,
                    panel
                        .population
                        .as_ref()
                        .map(|p| p.nrows().to_string())
                        .unwrap_or_else(|| "—".into()),
                    panel.explained[0] * 100.0,
                ));
            }
        }
        if !self.health.is_clean() {
            out.push_str("\n## Run health\n\n```\n");
            out.push_str(&self.health.render());
            out.push_str("```\n");
        }
        out.push_str(&format!("\n_worker threads: {}_\n", self.resolved_threads));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidefp_stats::DetectionLabel::{TrojanFree as Free, TrojanInfested as Infested};

    fn counts(fp: usize, fn_: usize) -> ConfusionCounts {
        let mut c = ConfusionCounts::new();
        for i in 0..80 {
            c.record(Infested, if i < fp { Free } else { Infested });
        }
        for i in 0..40 {
            c.record(Free, if i < fn_ { Infested } else { Free });
        }
        c
    }

    #[test]
    fn row_display_matches_paper_style() {
        let row = Table1Row {
            dataset: "B5",
            counts: counts(0, 3),
        };
        let s = row.to_string();
        assert!(s.contains("B5"));
        assert!(s.contains("0/80"));
        assert!(s.contains("3/40"));
    }

    #[test]
    fn render_markdown_is_a_valid_table() {
        let result = ExperimentResult {
            table1: vec![Table1Row {
                dataset: "B5",
                counts: counts(0, 3),
            }],
            golden_baseline: Table1Row {
                dataset: "golden",
                counts: counts(0, 0),
            },
            fig4: vec![],
            health: RunHealth::default(),
            resolved_threads: 1,
        };
        let md = result.render_markdown();
        assert!(md.contains("| B5 | 0/80 | 3/40 |"));
        assert!(md.contains("| golden | 0/80 | 0/40 |"));
        assert!(md.starts_with("## Table 1"));
        // No Figure-4 section without panels.
        assert!(!md.contains("Figure 4"));
        // Clean runs don't grow a health section.
        assert!(!md.contains("Run health"));
    }

    #[test]
    fn degraded_health_is_rendered_in_both_formats() {
        let mut health = RunHealth::default();
        health.measurement.devices_in = 30;
        health.measurement.devices_kept = 29;
        health.measurement.injected_faults = 7;
        health.solvers.smo_relaxed = 2;
        let result = ExperimentResult {
            table1: vec![Table1Row {
                dataset: "B5",
                counts: counts(0, 3),
            }],
            golden_baseline: Table1Row {
                dataset: "golden",
                counts: counts(0, 0),
            },
            fig4: vec![],
            health,
            resolved_threads: 1,
        };
        let text = result.render_table1();
        assert!(text.contains("injected faults        7"));
        let md = result.render_markdown();
        assert!(md.contains("## Run health"));
        assert!(md.contains("smo relaxed accepts    2"));
    }

    #[test]
    fn render_table_contains_all_rows() {
        let result = ExperimentResult {
            table1: vec![
                Table1Row {
                    dataset: "B1",
                    counts: counts(0, 40),
                },
                Table1Row {
                    dataset: "B5",
                    counts: counts(0, 3),
                },
            ],
            golden_baseline: Table1Row {
                dataset: "golden",
                counts: counts(0, 0),
            },
            fig4: vec![],
            health: RunHealth::default(),
            resolved_threads: 1,
        };
        let rendered = result.render_table1();
        assert!(rendered.contains("B1"));
        assert!(rendered.contains("40/40"));
        assert!(rendered.contains("golden"));
        assert!(result.row("B5").is_some());
        assert!(result.row("B9").is_none());
    }
}
