//! Regenerates **Figure 4** of the paper: PCA projections (top three
//! principal components) of the measured device fingerprints and of the
//! generated datasets S1–S5.
//!
//! Prints a per-panel summary and writes one CSV per panel under
//! `target/fig4/` with columns `series,pc1,pc2,pc3`, where `series` is one
//! of `population`, `free`, `amplitude`, `frequency` — enough to re-plot
//! the figure with any plotting tool.
//!
//! ```text
//! cargo run --release -p sidefp-bench --bin fig4 [seed]
//! ```

use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::plot::{scatter_svg, Series};
use sidefp_core::{ExperimentConfig, PaperExperiment};

fn main() -> ExitCode {
    let args = Args::from_env(&Spec {
        usage: "fig4 [seed]",
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
        ..Default::default()
    };
    let result = match PaperExperiment::new(config).and_then(|e| e.run()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out_dir = std::path::Path::new("target/fig4");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    println!("Figure 4: PCA projections (top 3 PCs per dataset)");
    println!("{:-<78}", "");
    for panel in &result.fig4 {
        let mut csv = String::from("series,pc1,pc2,pc3\n");
        if let Some(pop) = &panel.population {
            for row in pop.rows_iter() {
                csv.push_str(&format!(
                    "population,{:.6},{:.6},{:.6}\n",
                    row[0],
                    row.get(1).copied().unwrap_or(0.0),
                    row.get(2).copied().unwrap_or(0.0)
                ));
            }
        }
        for (i, row) in panel.devices.rows_iter().enumerate() {
            csv.push_str(&format!(
                "{},{:.6},{:.6},{:.6}\n",
                panel.variants[i],
                row[0],
                row.get(1).copied().unwrap_or(0.0),
                row.get(2).copied().unwrap_or(0.0)
            ));
        }
        let path = out_dir.join(format!("fig4{}_{}.csv", panel.label, panel.dataset));
        match fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes())) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }

        // SVG rendering (PC1 vs PC2), mirroring the paper's color scheme:
        // purple population, blue squares-free, green amplitude, black
        // frequency.
        let mut svg_series = Vec::new();
        if let Some(pop) = &panel.population {
            svg_series.push(Series {
                label: format!("{} population", panel.dataset),
                color: "#8e44ad".into(),
                radius: 1.5,
                points: pop
                    .rows_iter()
                    .map(|r| (r[0], r.get(1).copied().unwrap_or(0.0)))
                    .collect(),
            });
        }
        for (variant, color) in [
            ("free", "#1f5bd8"),
            ("amplitude", "#1e8f4e"),
            ("frequency", "#222222"),
        ] {
            svg_series.push(Series {
                label: variant.into(),
                color: color.into(),
                radius: 3.0,
                points: panel
                    .devices
                    .rows_iter()
                    .enumerate()
                    .filter(|(i, _)| panel.variants[*i] == variant)
                    .map(|(_, r)| (r[0], r.get(1).copied().unwrap_or(0.0)))
                    .collect(),
            });
        }
        let svg = scatter_svg(
            &format!("Fig. 4({}) — {}", panel.label, panel.dataset),
            &svg_series,
        );
        let svg_path = out_dir.join(format!("fig4{}_{}.svg", panel.label, panel.dataset));
        match fs::File::create(&svg_path).and_then(|mut f| f.write_all(svg.as_bytes())) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("cannot write {}: {e}", svg_path.display());
                return ExitCode::FAILURE;
            }
        }

        // Console summary: population size + per-series PC1 centroids, the
        // quantity that makes the overlap/separation visible in text form.
        let centroid = |variant: &str| -> (f64, usize) {
            let mut sum = 0.0;
            let mut count = 0;
            for (i, row) in panel.devices.rows_iter().enumerate() {
                if panel.variants[i] == variant {
                    sum += row[0];
                    count += 1;
                }
            }
            (if count > 0 { sum / count as f64 } else { 0.0 }, count)
        };
        let (free_c, _) = centroid("free");
        let (amp_c, _) = centroid("amplitude");
        let (freq_c, _) = centroid("frequency");
        let pop_desc = panel
            .population
            .as_ref()
            .map(|p| {
                let mean = p.col(0).iter().sum::<f64>() / p.nrows() as f64;
                format!("population n={} PC1-centroid {mean:+.4}", p.nrows())
            })
            .unwrap_or_else(|| "no population (measured devices only)".to_string());
        println!(
            "(4{}) {:<9} {pop_desc}\n      devices PC1 centroids: free {free_c:+.4}  amplitude {amp_c:+.4}  frequency {freq_c:+.4}\n      explained variance: {:.1}% / {:.1}% / {:.1}%",
            panel.label,
            panel.dataset,
            panel.explained[0] * 100.0,
            panel.explained[1] * 100.0,
            panel.explained[2] * 100.0,
        );
    }
    println!("{:-<78}", "");
    println!("CSV + SVG renderings written to target/fig4/ (two files per panel).");
    println!();
    println!("Paper reference (Fig. 4): S1/S2 disjoint from all devices; S3/S4 partial");
    println!("overlap with the Trojan-free cluster; S5 near-complete overlap, cleanly");
    println!("separated from both Trojan-infested clusters.");
    ExitCode::SUCCESS
}
