//! Wafer-map rendering: the EDA-classic view of the Trojan test.
//!
//! Draws the DUTT lot as an SVG wafer map — one marker per die position,
//! colored by B5's verdict against the ground truth — and prints a coarse
//! ASCII map. Spatially clustered misclassifications would indicate a
//! within-wafer systematic the detection flow failed to absorb; a clean
//! run shows verdicts uncorrelated with position.
//!
//! ```text
//! cargo run --release -p sidefp-bench --bin wafermap [seed]
//! ```

use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_core::{ExperimentConfig, PaperExperiment};
use sidefp_stats::DetectionLabel;

fn main() -> ExitCode {
    let args = Args::from_env(&Spec {
        usage: "wafermap [seed]",
        switches: &[],
        options: &[],
        positional: (1, Kind::Number),
    });
    let seed = args
        .numbers()
        .next()
        .unwrap_or(ExperimentConfig::default().seed);
    let config = ExperimentConfig {
        seed,
        kde_samples: 20_000,
        ..Default::default()
    };
    let artifacts = match PaperExperiment::new(config).and_then(|e| e.run_with_artifacts()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dutts = &artifacts.silicon.dutts;
    let b5 = &artifacts.silicon.b5;

    // Per-device verdict vs. truth; only the Trojan-free version of each
    // die is mapped (all three versions share a position).
    #[derive(Clone, Copy, PartialEq)]
    enum Cell {
        CorrectAccept,
        FalseAlarm,
    }
    let mut dies: Vec<(f64, f64, Cell)> = Vec::new();
    for (i, row) in dutts.fingerprints().rows_iter().enumerate() {
        if dutts.labels()[i] != DetectionLabel::TrojanFree {
            continue;
        }
        let verdict = match b5.classify(row) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("classification failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (x, y) = dutts.positions()[i].normalized();
        dies.push((
            x,
            y,
            if verdict == DetectionLabel::TrojanFree {
                Cell::CorrectAccept
            } else {
                Cell::FalseAlarm
            },
        ));
    }

    // ASCII map: 21x21 grid over the unit disk.
    println!("Wafer map of Trojan-free verdicts (o = accepted, X = false alarm):");
    const GRID: i32 = 21;
    for gy in (0..GRID).rev() {
        let mut line = String::new();
        for gx in 0..GRID {
            let cx = (gx as f64 + 0.5) / GRID as f64 * 2.0 - 1.0;
            let cy = (gy as f64 + 0.5) / GRID as f64 * 2.0 - 1.0;
            if cx * cx + cy * cy > 1.0 {
                line.push(' ');
                continue;
            }
            let cell = dies.iter().find(|(x, y, _)| {
                (x - cx).abs() < 1.0 / GRID as f64 && (y - cy).abs() < 1.0 / GRID as f64
            });
            line.push(match cell {
                Some((_, _, Cell::FalseAlarm)) => 'X',
                Some((_, _, Cell::CorrectAccept)) => 'o',
                None => '.',
            });
        }
        println!("  {line}");
    }

    // SVG rendering.
    let mut svg = String::from(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"480\" height=\"480\" viewBox=\"-1.1 -1.1 2.2 2.2\">\n",
    );
    svg.push_str("<circle cx=\"0\" cy=\"0\" r=\"1.0\" fill=\"#f4f4f4\" stroke=\"#888\" stroke-width=\"0.01\"/>\n");
    for (x, y, cell) in &dies {
        let color = match cell {
            Cell::CorrectAccept => "#1e8f4e",
            Cell::FalseAlarm => "#d64545",
        };
        svg.push_str(&format!(
            "<circle cx=\"{x:.3}\" cy=\"{:.3}\" r=\"0.04\" fill=\"{color}\"/>\n",
            -y // SVG y grows downward
        ));
    }
    svg.push_str("</svg>\n");
    let out_dir = std::path::Path::new("target/fig4");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = out_dir.join(format!("wafermap_seed{seed}.svg"));
    if let Err(e) = fs::File::create(&path).and_then(|mut f| f.write_all(svg.as_bytes())) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    let alarms = dies
        .iter()
        .filter(|(_, _, c)| *c == Cell::FalseAlarm)
        .count();
    println!();
    println!(
        "{} dies mapped, {} false alarms; SVG written to {}",
        dies.len(),
        alarms,
        path.display()
    );
    println!("Spatially clustered X's would indicate a within-wafer systematic the");
    println!("flow failed to absorb (e.g. a radial gradient outside the PCM's view).");
    ExitCode::SUCCESS
}
