//! `benchmark`: the repository's yardstick. See README.md next to this
//! package for the metrics, the workloads and how to state a claim.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the JSON result
//! benchmark run   [--seed N] [--seconds S] [--out FILE]
//!     every workload untraced, each in its own process; prints
//!     `metric workload value unit` and writes FILE
//!     (default target/benchmark/results.json)
//! benchmark trace [--seed N] [--seconds S]
//!     every workload traced; prints per-layer metrics and self times and
//!     writes target/benchmark/trace.jsonl
//! benchmark compare DIR_A DIR_B
//!     medians, spreads, pair wins and a verdict per (metric, workload)
//!     over the results files in two directories
//! benchmark --heap W --seed N
//!     internal: the child a `--trace 0` run starts to count its heap,
//!     so the timed process runs with counting off
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sidefp_benchmark::catalog::{MetricDef, END_TO_END, PER_LAYER};
use sidefp_benchmark::json::{self, Json};
use sidefp_benchmark::stats::{iqr, median, pair_wins, relative_worsening, verdict, Verdict};
use sidefp_benchmark::{peak_heap_mib, run_workload, Budget, Scale, Workload};

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1
  benchmark run   [--seed N] [--seconds S] [--out FILE]
  benchmark trace [--seed N] [--seconds S]
  benchmark compare DIR_A DIR_B
workloads: paper-fit, wide-fingerprint, lot-scoring, drift-stream";

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;
const OUT_DIR: &str = "target/benchmark";

/// Parsed `--flag value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{name}")),
            None => default.ok_or_else(|| format!("missing --{name}")),
        }
    }
}

fn seconds(flags: &Flags) -> Result<f64, String> {
    let s: f64 = flags.get("seconds", Some(DEFAULT_SECONDS))?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be positive, got {s}"))
    }
}

/// One run of one workload (the interface every other mode drives).
fn single(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let name: String = flags.get("workload", None)?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = flags.get("seed", None)?;
    let traced = match flags.get::<u8>("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let budget = Budget {
        seconds: seconds(&flags)?,
        max_ops: usize::MAX,
    };
    let mut report = run_workload(workload, seed, budget, Scale::paper(), traced);
    if !traced {
        report = report.with_peak_heap(heap_child(workload, seed));
    }
    for line in &report.notes {
        println!("{line}");
    }
    if let Some(jsonl) = &report.trace_jsonl {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        write(&path, jsonl)?;
        println!("wrote {} ({} spans)", path.display(), jsonl.lines().count());
    }
    println!("{}", report.json_line());
    Ok(())
}

/// Measures `workload`'s peak heap in a child process, the only kind of
/// run that counts allocations.
fn heap_child(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--heap", workload.name(), "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("starting it: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|line| line.trim().parse().ok())
        .ok_or_else(|| format!("no peak in its output `{}`", stdout.trim()))
}

/// The heap run `heap_child` starts: prints the peak live heap, in MiB, of
/// a fixed slice of one workload.
fn heap_only(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["heap", "seed"])?;
    let name: String = flags.get("heap", None)?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = flags.get("seed", None)?;
    println!(
        "{}",
        json::number(peak_heap_mib(workload, seed, Scale::paper())?)
    );
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A child run's result line, raw and parsed.
struct ChildResult {
    workload: Workload,
    line: String,
    json: Json,
}

/// Runs every workload in its own child process, one after another, and
/// returns each child's result line.
fn children(seed: u64, seconds: f64, traced: bool) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        eprintln!(
            "== {} ({}traced, {seconds} s)",
            workload.name(),
            if traced { "" } else { "un" }
        );
        let out = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!(
                "{} exited with {}: {}",
                workload.name(),
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        results.push(ChildResult {
            workload,
            line: last.to_owned(),
            json: Json::parse(last)?,
        });
    }
    Ok(results)
}

/// `true` when a child's result says every operation passed its checks.
fn correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Prints `metric workload value unit` for every metric in `defs`, plus
/// each workload's operation count and error rate.
fn print_table(results: &[ChildResult], defs: &[MetricDef]) {
    for r in results {
        let name = r.workload.name();
        let count = |key| r.json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let (attempted, failed) = (count("attempted"), count("failed"));
        let rate = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        println!("{:<34} {name:<17} {attempted} count", "ops");
        println!("{:<34} {name:<17} {rate} ratio", "error_rate");
        for def in defs {
            let value = metric_value(&r.json, def.name).map_or("missing".into(), json::number);
            println!("{:<34} {name:<17} {value} {}", def.name, def.unit);
        }
    }
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "out"])?;
    let seed: u64 = flags.get("seed", Some(DEFAULT_SEED))?;
    let seconds = seconds(&flags)?;
    let out: PathBuf = flags.get("out", Some(Path::new(OUT_DIR).join("results.json")))?;
    let results = children(seed, seconds, false)?;
    print_table(&results, END_TO_END);
    let body: Vec<String> = results
        .iter()
        .map(|r| format!("    {}: {}", json::quote(r.workload.name()), r.line))
        .collect();
    write(
        &out,
        &format!(
            "{{\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            json::number(seconds),
            body.join(",\n")
        ),
    )?;
    println!("wrote {}", out.display());
    Ok(results.iter().all(|r| correct(&r.json)))
}

fn trace_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds"])?;
    let seed: u64 = flags.get("seed", Some(DEFAULT_SEED))?;
    let results = children(seed, seconds(&flags)?, true)?;
    print_table(&results, PER_LAYER);
    let mut merged = String::new();
    for workload in Workload::ALL {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        merged +=
            &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = Path::new(OUT_DIR).join("trace.jsonl");
    write(&path, &merged)?;
    println!(
        "wrote {} ({} spans)",
        path.display(),
        merged.lines().count()
    );
    Ok(results.iter().all(|r| correct(&r.json)))
}

/// Loads every `*.json` results file in `dir`, sorted by file name.
fn load_results(dir: &str) -> Result<Vec<Json>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no results files (*.json)"));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [dir_a, dir_b] = args else {
        return Err("compare needs two directories".into());
    };
    let (a, b) = (load_results(dir_a)?, load_results(dir_b)?);
    let series = |files: &[Json], w: Workload, name: &str| -> Vec<f64> {
        files
            .iter()
            .filter_map(|f| metric_value(f.get("workloads")?.get(w.name())?, name))
            .collect()
    };
    println!(
        "{:<16} {:<17} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6} {:>7}  verdict",
        "metric",
        "workload",
        "median A",
        "median B",
        "IQR A%",
        "IQR B%",
        "delta%",
        "wins",
        "bound%"
    );
    let mut worse = false;
    for def in END_TO_END {
        let bound = def.bound.unwrap_or(0.0);
        for w in Workload::ALL {
            let (xa, xb) = (series(&a, w, def.name), series(&b, w, def.name));
            let v = verdict(&xa, &xb, def.better, bound);
            worse |= v == Verdict::Worse;
            let (ma, mb) = (median(&xa), median(&xb));
            let pct = |x: f64| 100.0 * x / ma.abs().max(f64::MIN_POSITIVE);
            let (wins, pairs) = pair_wins(&xa, &xb, def.better);
            println!(
                "{:<16} {:<17} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>+8.2} {:>3}/{:<2} {:>7.1}  {}",
                def.name,
                w.name(),
                ma,
                mb,
                pct(iqr(&xa)),
                pct(iqr(&xb)),
                100.0 * relative_worsening(&xa, &xb, def.better),
                wins,
                pairs,
                100.0 * bound,
                v.as_str()
            );
        }
    }
    println!("(delta% > 0 means B is worse; runs paired in file-name order)");
    Ok(!worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("trace") => trace_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--heap") => heap_only(&args).map(|()| true),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => single(&args).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
