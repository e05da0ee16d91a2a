//! Scenario-matrix sweep: multi-parameter fingerprints × Trojan classes ×
//! process corners, each cell through the full B1–B5 flow.
//!
//! Usage:
//!
//! ```text
//! scenario-matrix           # print the per-scenario FP/FN markdown table
//! scenario-matrix --json    # additionally dump BENCH_scenarios.json
//! scenario-matrix --smoke   # reduced grid (≤4 cells) at reduced sizing
//! ```
//!
//! The grid crosses the four channel stacks (power-only up to
//! power+iddt+delay+spectral) with two Trojan suites (the paper's always-on
//! RF leaks; a triggered/dormant payload) and two process corners (tt, ff)
//! under the paper's technology drift — 16 cells. Cell 0 is the paper's own
//! setting and runs on the base seed, so its B1–B5 row *is* Table 1; every
//! other cell runs on a seed forked from the base by cell index
//! ([`sidefp_parallel::fork_seed`]), so the matrix is bit-identical at any
//! thread count and unchanged by reordering or subsetting the grid.
//!
//! Build with `--release`; the debug profile distorts nothing here but
//! takes minutes instead of seconds.

use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::record::{self, Value};
use sidefp_chip::trojan::TrojanSuite;
use sidefp_core::scenario::{channel_sets, Scenario, ScenarioOutcome};
use sidefp_core::{CoreError, ExperimentConfig};
use sidefp_silicon::{ProcessCorner, TechnologyPreset};

/// Gate-equivalent size of the dormant payload in the matrix.
const DORMANT_GATES: usize = 1000;

/// Builds the full 16-cell grid over a base configuration.
fn grid(base: &ExperimentConfig) -> Vec<Scenario> {
    let suites = [
        TrojanSuite::rf_leaks(base.amplitude_delta, base.frequency_delta),
        TrojanSuite::dormant(DORMANT_GATES),
    ];
    let corners = [ProcessCorner::Typical, ProcessCorner::FastFast];
    let mut cells = Vec::new();
    for stack in channel_sets(&base.meter) {
        for suite in &suites {
            for corner in corners {
                cells.push(Scenario::new(
                    stack.clone(),
                    suite.clone(),
                    corner,
                    TechnologyPreset::paper(),
                ));
            }
        }
    }
    cells
}

/// The reduced smoke grid: both suites through the paper stack and the
/// widest stack, typical corner only.
fn smoke_grid(base: &ExperimentConfig) -> Vec<Scenario> {
    grid(base)
        .into_iter()
        .filter(|s| s.corner == ProcessCorner::Typical)
        .filter(|s| s.channels.channels().len() == 1 || s.channels.channels().len() == 4)
        .collect()
}

/// Runs every cell sequentially (each cell is internally parallel), with
/// the per-cell seed policy described in the module docs.
fn run_matrix(
    cells: &[Scenario],
    base: &ExperimentConfig,
) -> Result<Vec<ScenarioOutcome>, CoreError> {
    let paper = Scenario::paper_cell(base);
    cells
        .iter()
        .enumerate()
        .map(|(idx, cell)| {
            let seed = if *cell == paper {
                base.seed
            } else {
                sidefp_parallel::fork_seed(base.seed, idx as u64)
            };
            eprintln!("[{}/{}] {}", idx + 1, cells.len(), cell.name);
            cell.run(base, seed)
        })
        .collect()
}

fn render_markdown(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from("## Scenario matrix — per-cell FP/FN (B1–B5)\n\n");
    out.push_str(
        "| scenario | n_m | devices | B1 fp/fn | B2 fp/fn | B3 fp/fn | B4 fp/fn | B5 fp/fn |\n",
    );
    out.push_str(
        "|----------|----:|--------:|---------:|---------:|---------:|---------:|---------:|\n",
    );
    for o in outcomes {
        out.push_str(&format!(
            "| {} | {} | {} ",
            o.name, o.fingerprint_width, o.devices
        ));
        for b in ["B1", "B2", "B3", "B4", "B5"] {
            match o.row(b) {
                Some(r) => out.push_str(&format!(
                    "| {}/{} ",
                    r.counts.false_positives(),
                    r.counts.false_negatives()
                )),
                None => out.push_str("| — "),
            }
        }
        out.push_str("|\n");
    }
    out.push_str("\nFP = missed Trojans, FN = false alarms (paper conventions).\n");
    out
}

/// The `BENCH_scenarios.json` record: one object per cell with its
/// flattened per-boundary counts (`b1_fp` … `b5_free`).
fn bench_record(base_seed: u64, outcomes: &[ScenarioOutcome]) -> Value {
    let cell = |o: &ScenarioOutcome| {
        let head = [
            ("name", Value::from(o.name.as_str())),
            ("channels", Value::Str(o.channels.join("+"))),
            ("classes", Value::Str(o.trojan_classes.join("+"))),
            ("corner", o.corner.into()),
            ("preset", o.preset.into()),
            ("seed", o.seed.into()),
            ("devices", o.devices.into()),
            ("fingerprint_width", o.fingerprint_width.into()),
        ];
        let counts = o.table1.iter().flat_map(|r| {
            let c = &r.counts;
            let b = r.dataset.to_lowercase();
            [
                ("fp", c.false_positives()),
                ("infested", c.infested_total()),
                ("fn", c.false_negatives()),
                ("free", c.free_total()),
            ]
            .map(|(what, n)| (format!("{b}_{what}"), Value::from(n)))
        });
        let head = head.map(|(k, v)| (k.to_string(), v));
        record::object(head.into_iter().chain(counts))
    };
    record::object([
        ("bench", Value::from("scenario_matrix")),
        ("base_seed", base_seed.into()),
        (
            "scenarios",
            Value::List(outcomes.iter().map(cell).collect()),
        ),
    ])
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&Spec {
        usage: "scenario-matrix [--json] [--smoke]",
        switches: &["--json", "--smoke"],
        options: &[],
        positional: (0, Kind::Text),
    });
    let (json, smoke) = (args.switch("--json"), args.switch("--smoke"));

    let base = if smoke {
        sidefp_bench::smoke_sized(ExperimentConfig::default())
    } else {
        ExperimentConfig::default()
    };

    let cells = if smoke {
        smoke_grid(&base)
    } else {
        grid(&base)
    };
    if smoke && cells.len() > 4 {
        return Err(format!("smoke grid has {} cells, expected <= 4", cells.len()).into());
    }
    let outcomes = sidefp_bench::timed("scenario-matrix", || run_matrix(&cells, &base))?;

    print!("{}", render_markdown(&outcomes));

    if json {
        let payload = record::write(&bench_record(base.seed, &outcomes));
        std::fs::write("BENCH_scenarios.json", payload)
            .map_err(|e| format!("write BENCH_scenarios.json: {e}"))?;
        println!(
            "\nwrote BENCH_scenarios.json ({} scenarios)",
            outcomes.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenario-matrix: {e}");
            ExitCode::FAILURE
        }
    }
}
