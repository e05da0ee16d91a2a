//! Seed sweep: every ablation and extension setting as a named cell, run
//! at 16 seeds, so each claim is a distribution over draws instead of one
//! draw.
//!
//! ```text
//! sweep           # every cell at every seed; prints the table, writes BENCH_seeds.json
//! sweep --smoke   # 4 cells x 4 seeds at reduced sizing; writes nothing
//! ```
//!
//! A cell is a name (`group/value`) and a fully lowered
//! [`ExperimentConfig`]. `paper` is the library default (10⁵ KDE samples);
//! `base` is the default at 20,000 KDE samples, the reference row of every
//! group except `calibrate` and `scenario`, which vary the paper sizing.
//! Each group varies one knob, or one pair of knobs, over the values listed
//! in [`cells`]; a value that lowers to `base` or `paper` is not repeated.
//! `scenario` is the multi-parameter grid of [`sidefp_core::scenario`]
//! (channel stack × Trojan suite × process corner), each cell lowered by
//! [`Scenario::config`].
//!
//! Each cell runs at every seed of [`SEEDS`], seed 42 first. The seed
//! replaces the config's own, so `paper` at seed `s` is `table1 s`. A run
//! records B1–B5 and golden FP/FN plus the worst paired die-vs-kerf SPC
//! z-score (the label-free alarm of the `tamper` group); a failed run
//! records its error and the sweep goes on. Cells run one after another
//! and each run is parallel inside, bit-identical at any worker count, so
//! a rerun reproduces `BENCH_seeds.json` byte for byte.

use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::record::{self, Value};
use sidefp_chip::trojan::TrojanSuite;
use sidefp_core::config::RegressorKind;
use sidefp_core::scenario::{channel_sets, Scenario};
use sidefp_core::spc::paired_check;
use sidefp_core::{ExperimentConfig, PaperExperiment};
use sidefp_silicon::environment::Environment;
use sidefp_silicon::foundry::ProcessShift;
use sidefp_silicon::params::ProcessFactor;
use sidefp_silicon::pcm::{PcmKind, PcmSuite, PcmTamper};
use sidefp_silicon::{ProcessCorner, SiliconError, TechnologyPreset};
use sidefp_stats::descriptive::quantile;
use sidefp_stats::knn::KnnConfig;
use sidefp_stats::ridge::RidgeConfig;

/// Seed 42, the library default, first, so the first column is the draw
/// every single-seed figure of the repo uses; then plain integers, so the
/// `paper` row at seed `s` is `table1 s`.
const SEEDS: [u64; 16] = [42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// The `--smoke` subset: the paper cell, the no-drift cell, one tamper and
/// the widest channel stack, so every channel's wiring runs.
const SMOKE_CELLS: [&str; 4] = [
    "paper",
    "shift/0",
    "tamper/0.94",
    "scenario/power+iddt+delay+spectral,dormant,tt",
];
const SMOKE_SEEDS: usize = 4;

/// The rows of one run, in record order.
const BOUNDARIES: [&str; 6] = ["b1", "b2", "b3", "b4", "b5", "golden"];

/// One named configuration of the sweep.
struct Cell {
    name: String,
    config: ExperimentConfig,
}

/// What one run of a cell produced.
struct Counts {
    /// (FP, FN) per entry of [`BOUNDARIES`]; FP counts missed Trojans and
    /// FN false alarms (paper conventions).
    fp_fn: [(usize, usize); 6],
    /// Worst paired die-vs-kerf SPC z-score.
    spc_z: f64,
}

/// A run's counts, or the error that stopped it.
type Outcome = Result<Counts, String>;

/// The default foundry drift scaled by `scale` (1.0 is the default).
fn scaled_shift(scale: f64) -> ProcessShift {
    ProcessShift::on_factor(ProcessFactor::ImplantN, 4.2 * scale)
        .and(ProcessFactor::ImplantP, 3.7 * scale)
        .and(ProcessFactor::Oxide, -2.85 * scale)
        .and(ProcessFactor::Litho, 2.85 * scale)
        .and(ProcessFactor::Beol, 1.5 * scale)
}

/// The sweep's table of cells: `paper`, `base`, then one cell per
/// non-default value of each group.
fn cells() -> Result<Vec<Cell>, SiliconError> {
    let paper = ExperimentConfig::default();
    let base = ExperimentConfig {
        kde_samples: 20_000,
        ..paper.clone()
    };
    let mut cells = vec![];
    for (name, config) in [("paper", &paper), ("base", &base)] {
        let (name, config) = (name.into(), config.clone());
        cells.push(Cell { name, config });
    }
    let mut add = |name: String, config: ExperimentConfig| {
        if config != base && config != paper {
            cells.push(Cell { name, config });
        }
    };
    let with = |edit: &dyn Fn(&mut ExperimentConfig)| {
        let mut config = base.clone();
        edit(&mut config);
        config
    };

    for scale in [0.0, 0.25, 0.5, 0.75, 1.0, 1.25] {
        let config = with(&|c| c.process_shift = scaled_shift(scale));
        add(format!("shift/{scale}"), config);
    }
    for h in [0.1, 0.2, 0.4, 0.8, 1.6] {
        for alpha in [0.0, 0.5, 1.0] {
            let config = with(&|c| {
                c.kde.bandwidth = Some(h);
                c.kde.alpha = alpha;
            });
            add(format!("kde/h={h},alpha={alpha}"), config);
        }
    }
    for (upper, band, iters) in [
        (1000.0, None, 1),
        (1000.0, None, 2),
        (1000.0, None, 4),
        (1000.0, None, 12),
        (10.0, None, 12),
        (3.0, None, 12),
        (1000.0, Some(0.2), 12),
        (1000.0, Some(0.05), 12),
    ] {
        let config = with(&|c| {
            c.kmm.upper = upper;
            c.kmm.band = band;
            c.kmm_iterations = iters;
        });
        let eps = band.map_or("auto".into(), |b: f64| b.to_string());
        add(format!("kmm/B={upper},eps={eps},iters={iters}"), config);
    }
    for nu in [0.02, 0.05, 0.1, 0.2] {
        for gamma in [None, Some(0.5), Some(2.0)] {
            let config = with(&|c| {
                c.boundary.nu = nu;
                c.boundary.gamma = gamma;
            });
            let g = gamma.map_or("median".into(), |g: f64| g.to_string());
            add(format!("svm/nu={nu},gamma={g}"), config);
        }
    }
    for n in [25, 50, 100, 200, 400] {
        add(format!("mc/{n}"), with(&|c| c.mc_samples = n));
    }
    use PcmKind::{LeakageCurrent, PathDelay, RingOscillator, VthMonitor};
    for (label, kinds) in [
        ("delay", vec![PathDelay]),
        ("delay+ring-osc", vec![PathDelay, RingOscillator]),
        (
            "delay+ring-osc+leakage",
            vec![PathDelay, RingOscillator, LeakageCurrent],
        ),
        (
            "delay+ring-osc+leakage+vth",
            vec![PathDelay, RingOscillator, LeakageCurrent, VthMonitor],
        ),
    ] {
        let suite = PcmSuite::new(kinds, 0.002)?;
        add(
            format!("pcm/{label}"),
            with(&|c| c.pcm_suite = suite.clone()),
        );
    }
    let ridge = |degree| {
        RegressorKind::Ridge(RidgeConfig {
            degree,
            lambda: 1e-6,
        })
    };
    for (label, kind) in [
        ("mars", RegressorKind::default()),
        ("ridge-deg2", ridge(2)),
        ("ridge-deg4", ridge(4)),
        ("knn-5", RegressorKind::Knn(KnnConfig { k: 5 })),
    ] {
        add(
            format!("regressor/{label}"),
            with(&|c| c.regressor = kind.clone()),
        );
    }
    // At the paper's 10⁵ KDE samples, not base's 20,000.
    for bw in [0.3, 0.35, 0.4] {
        for noise in [0.004, 0.0045, 0.005, 0.006] {
            let mut config = paper.clone();
            config.kde.bandwidth = Some(bw);
            config.meter.noise_relative = noise;
            add(format!("calibrate/bw={bw},noise={noise}"), config);
        }
    }
    for temp in [25.0, 35.0, 50.0, 70.0, 85.0] {
        let env = Environment::at_temperature(temp)?;
        add(format!("env/{temp}C"), with(&|c| c.test_environment = env));
    }
    for scale in [1.0, 0.99, 0.97, 0.94, 0.90, 0.85] {
        let tamper = if scale == 1.0 {
            PcmTamper::none()
        } else {
            PcmTamper::on_kind(PcmKind::PathDelay, scale)
        };
        add(
            format!("tamper/{scale}"),
            with(&|c| c.pcm_tamper = tamper.clone()),
        );
    }
    // At the paper sizing. The power, always-on, tt cell is `paper` itself,
    // though it lowers with `channels` and `trojan_suite` set.
    let paper_cell = Scenario::paper_cell(&paper);
    let suites = [
        TrojanSuite::rf_leaks(paper.amplitude_delta, paper.frequency_delta),
        TrojanSuite::dormant(1000),
    ];
    for channels in channel_sets(&paper.meter) {
        for suite in &suites {
            for corner in [ProcessCorner::Typical, ProcessCorner::FastFast] {
                let (channels, suite) = (channels.clone(), suite.clone());
                let cell = Scenario::new(channels, suite, corner, TechnologyPreset::paper());
                if cell != paper_cell {
                    // `channels/classes/corner/preset` → `channels,classes,corner`.
                    let parts: Vec<&str> = cell.name.split('/').take(3).collect();
                    let config = cell.config(&paper, paper.seed);
                    add(format!("scenario/{}", parts.join(",")), config);
                }
            }
        }
    }
    Ok(cells)
}

/// Runs `config` at `seed`: its Table-1 counts and SPC z-score.
fn run_once(config: &ExperimentConfig, seed: u64) -> Outcome {
    let config = ExperimentConfig {
        seed,
        ..config.clone()
    };
    let run = || -> Result<Counts, Box<dyn std::error::Error>> {
        let artifacts = PaperExperiment::new(config)?.run_with_artifacts()?;
        let dutts = &artifacts.silicon.dutts;
        let spc = paired_check(dutts.pcms(), dutts.kerf_pcms(), 3.0)?;
        let result = &artifacts.result;
        let rows = result.table1.iter().chain([&result.golden_baseline]);
        let rows = rows.map(|r| (r.counts.false_positives(), r.counts.false_negatives()));
        let fp_fn = rows.collect::<Vec<_>>().try_into();
        Ok(Counts {
            fp_fn: fp_fn.map_err(|rows: Vec<_>| format!("{} Table-1 rows, not 6", rows.len()))?,
            spc_z: spc.worst_zscore(),
        })
    };
    run().map_err(|e| e.to_string())
}

/// The `BENCH_seeds.json` record: per cell, one list per count with one
/// entry per seed (`null` where the run failed) and the runs' errors.
fn bench_record(seeds: &[u64], rows: &[(&str, Vec<Outcome>)]) -> Value {
    let cell = |(name, outcomes): &(&str, Vec<Outcome>)| {
        let per_seed = |f: &dyn Fn(&Counts) -> Value| {
            Value::List(
                outcomes
                    .iter()
                    .map(|o| o.as_ref().map_or(Value::Null, f))
                    .collect(),
            )
        };
        let mut fields = vec![("name".to_string(), Value::from(*name))];
        for (b, boundary) in BOUNDARIES.iter().enumerate() {
            fields.push((format!("{boundary}_fp"), per_seed(&|c| c.fp_fn[b].0.into())));
            fields.push((format!("{boundary}_fn"), per_seed(&|c| c.fp_fn[b].1.into())));
        }
        fields.push(("spc_z".into(), per_seed(&|c| c.spc_z.into())));
        let errors = outcomes
            .iter()
            .map(|o| o.as_ref().err().map(String::as_str));
        fields.push((
            "error".into(),
            Value::List(errors.map(Value::from).collect()),
        ));
        Value::Object(fields)
    };
    record::object([
        ("bench", Value::from("seeds")),
        (
            "seeds",
            Value::List(seeds.iter().map(|&s| s.into()).collect()),
        ),
        ("cells", Value::List(rows.iter().map(cell).collect())),
    ])
}

/// `median [q1–q3]` of the values, or `—` when there are none.
fn spread(values: &[f64], show: fn(f64) -> String) -> String {
    let q = |p| quantile(values, p).map(show);
    match (q(0.5), q(0.25), q(0.75)) {
        (Ok(m), Ok(lo), Ok(hi)) => format!("{m} [{lo}–{hi}]"),
        _ => "—".into(),
    }
}

fn render_markdown(seeds: &[u64], rows: &[(&str, Vec<Outcome>)]) -> String {
    let mut out = format!(
        "## Seed sweep — {} seeds ({})\n\n",
        seeds.len(),
        seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str(
        "Each boundary: seed-42 FP/FN, then median [q1–q3] of FP / of FN over the runs that \
         finished. FP = missed Trojans, FN = false alarms (paper conventions).\n\n",
    );
    out.push_str("| cell | B1 | B2 | B3 | B4 | B5 | golden | SPC z | failed |\n");
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    let mut errors = Vec::new();
    for (name, outcomes) in rows {
        let done: Vec<&Counts> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
        let first = outcomes.first().and_then(|o| o.as_ref().ok());
        out.push_str(&format!("| {name} "));
        for b in 0..BOUNDARIES.len() {
            let column = |f: fn((usize, usize)) -> usize| {
                let v: Vec<f64> = done.iter().map(|c| f(c.fp_fn[b]) as f64).collect();
                spread(&v, |v| v.to_string())
            };
            let head = first.map_or("—".into(), |c| {
                format!("{}/{}", c.fp_fn[b].0, c.fp_fn[b].1)
            });
            out.push_str(&format!(
                "| {head} · {} / {} ",
                column(|p| p.0),
                column(|p| p.1)
            ));
        }
        let z: Vec<f64> = done.iter().map(|c| c.spc_z).collect();
        let head = first.map_or("—".into(), |c| format!("{:.1}", c.spc_z));
        let mut failed = Vec::new();
        for (seed, outcome) in seeds.iter().zip(outcomes) {
            if let Err(e) = outcome {
                failed.push(seed.to_string());
                errors.push(format!("- {name} seed {seed}: {e}"));
            }
        }
        let failed = match failed.len() {
            0 => "0".into(),
            n => format!("{n} (seeds {})", failed.join(", ")),
        };
        out.push_str(&format!(
            "| {head} · {} | {failed} |\n",
            spread(&z, |z| format!("{z:.1}"))
        ));
    }
    if !errors.is_empty() {
        out.push_str("\nFailed runs:\n\n");
        out.push_str(&errors.join("\n"));
        out.push('\n');
    }
    out
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = Args::from_env(&Spec {
        usage: "sweep [--smoke]",
        switches: &["--smoke"],
        options: &[],
        positional: (0, Kind::Text),
    })
    .switch("--smoke");
    let mut cells = cells()?;
    let mut seeds = SEEDS.to_vec();
    if smoke {
        cells.retain(|c| SMOKE_CELLS.contains(&c.name.as_str()));
        for cell in &mut cells {
            cell.config = sidefp_bench::smoke_sized(cell.config.clone());
        }
        seeds.truncate(SMOKE_SEEDS);
    }
    let rows: Vec<(&str, Vec<Outcome>)> = sidefp_bench::timed("sweep", || {
        let rows = cells.iter().enumerate().map(|(i, cell)| {
            eprintln!("[{}/{}] {}", i + 1, cells.len(), cell.name);
            let outcomes = seeds.iter().map(|&s| run_once(&cell.config, s));
            (cell.name.as_str(), outcomes.collect())
        });
        rows.collect()
    });

    print!("{}", render_markdown(&seeds, &rows));
    if smoke {
        let outcomes = rows.iter().flat_map(|(_, o)| o);
        let failed = outcomes.filter(|o| o.is_err()).count();
        if failed > 0 {
            return Err(format!("smoke: {failed} runs failed").into());
        }
        return Ok(());
    }
    let payload = record::write(&bench_record(&seeds, &rows));
    std::fs::write("BENCH_seeds.json", payload)
        .map_err(|e| format!("write BENCH_seeds.json: {e}"))?;
    println!(
        "\nwrote BENCH_seeds.json ({} cells x {} seeds)",
        rows.len(),
        seeds.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_names_are_unique_and_grouped() {
        let cells = cells().unwrap();
        let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert!(
            names[2..].iter().all(|n| n.split('/').count() == 2),
            "{names:?}"
        );
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate cell names");
        for smoke in SMOKE_CELLS {
            assert!(names.contains(&smoke), "smoke cell {smoke} missing");
        }
    }

    #[test]
    fn no_two_cells_share_a_config() {
        let cells = cells().unwrap();
        let unseeded = |c: &Cell| ExperimentConfig {
            seed: 0,
            ..c.config.clone()
        };
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(unseeded(a) != unseeded(b), "{} == {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn paper_and_base_lower_to_the_defaults() {
        let cells = cells().unwrap();
        assert_eq!(cells[0].name, "paper");
        assert_eq!(cells[0].config, ExperimentConfig::default());
        assert_eq!(cells[1].name, "base");
        let base = ExperimentConfig {
            kde_samples: 20_000,
            ..Default::default()
        };
        assert_eq!(cells[1].config, base);
        assert_eq!(SEEDS[0], base.seed);
    }

    #[test]
    fn scenario_grid_skips_its_paper_cell() {
        let cells = cells().unwrap();
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        let grid: Vec<&&str> = names
            .iter()
            .filter(|n| n.starts_with("scenario/"))
            .collect();
        assert_eq!(grid.len(), 15, "{grid:?}");
        assert!(!names.contains(&"scenario/power,always-on,tt"));
        assert!(names.contains(&"scenario/power,always-on,ff"));
    }

    #[test]
    fn a_failed_run_records_null_counts_and_its_error() {
        let done = Counts {
            fp_fn: [(0, 40), (0, 40), (0, 15), (0, 22), (1, 0), (0, 4)],
            spc_z: 0.5,
        };
        let rows = [("paper", vec![Ok(done), Err("no fit".to_string())])];
        let r = bench_record(&[42, 1], &rows);
        let Some(Value::List(cells)) = r.get("cells") else {
            panic!("no cells list")
        };
        let list = |key: &str| match cells[0].get(key) {
            Some(Value::List(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(list("b5_fp"), [Value::Int(1), Value::Null]);
        assert_eq!(list("golden_fn"), [Value::Int(4), Value::Null]);
        assert_eq!(list("spc_z"), [Value::Float(0.5), Value::Null]);
        assert_eq!(list("error"), [Value::Null, Value::from("no fit")]);
        assert_eq!(record::parse(&record::write(&r)), Ok(r));
        let table = render_markdown(&[42, 1], &rows);
        assert!(
            table.contains("| paper | 0/40 · 0 [0–0] / 40 [40–40] "),
            "{table}"
        );
        assert!(table.contains("| 1 (seeds 1) |") && table.contains("- paper seed 1: no fit"));
    }
}
