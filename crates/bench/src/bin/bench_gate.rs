//! Typed checks of the committed `BENCH_*.json` records, the evidence
//! behind the repo's performance and scenario claims.
//!
//! ```text
//! bench-gate   # check the BENCH_*.json records in the working directory
//! ```
//!
//! Records are read with [`sidefp_bench::record`], the module the bench
//! binaries write them with. A missing file, or a missing, `null` or
//! non-numeric gated field, fails, naming the file and the field.
//! `BENCH_seeds.json` is checked against `BENCH_scenarios.json`: both
//! hold Table 1 at seed 42.

use std::path::Path;
use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::record::{self, Value};

const DRIFT_RATIO_FLOOR: f64 = 3.0;
const AMORTIZATION_FLOOR: f64 = 100.0;
const SCENARIO_MIN: usize = 12;

const PAPER_CELL: &str = "power/always-on/tt/paper";
const SEEDS_FILE: &str = "BENCH_seeds.json";
const SCENARIOS_FILE: &str = "BENCH_scenarios.json";
const BOUNDARIES: [&str; 5] = ["b1", "b2", "b3", "b4", "b5"];
const POWER_DORMANT_CELL: &str = "power/dormant/tt/paper";
const FULL_STACK_DORMANT_CELL: &str = "power+iddt+delay+spectral/dormant/tt/paper";

/// One check per record: a summary if the record holds, else why not.
type Check = fn(&Value) -> Result<String, String>;

const CHECKS: [(&str, Check); 3] = [
    ("BENCH_drift.json", drift),
    ("BENCH_throughput.json", throughput),
    ("BENCH_scenarios.json", scenarios),
];

fn ensure(holds: bool, why: String) -> Result<(), String> {
    holds.then_some(()).ok_or(why)
}

fn field<'a>(r: &'a Value, key: &str) -> Result<&'a Value, String> {
    r.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn num(r: &Value, key: &str) -> Result<f64, String> {
    let v = field(r, key)?;
    let shown = || format!("`{key}` is {}, not a number", record::write(v).trim());
    v.as_f64().ok_or_else(shown)
}

fn list<'a>(r: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(r, key)? {
        Value::List(items) => Ok(items),
        _ => Err(format!("`{key}` is not a list")),
    }
}

fn drift(r: &Value) -> Result<String, String> {
    let x = num(r, "cost_ratio")?;
    let why = format!("cost_ratio {x:.1}x below the {DRIFT_RATIO_FLOOR}x floor");
    ensure(x >= DRIFT_RATIO_FLOOR, why)?;
    Ok(format!(
        "incremental recalibration {x:.1}x cheaper than a refit"
    ))
}

fn throughput(r: &Value) -> Result<String, String> {
    let x = num(r, "amortization_ratio")?;
    let (cps, p99) = (num(r, "chips_per_sec")?, num(r, "p99_batch_ms")?);
    let why = format!("amortization {x:.1}x below the {AMORTIZATION_FLOOR}x floor");
    ensure(x >= AMORTIZATION_FLOOR, why)?;
    Ok(format!(
        "{x:.0}x amortization, {cps:.0} chips/s, p99 {p99:.1} ms"
    ))
}

fn scenarios(r: &Value) -> Result<String, String> {
    let cells = list(r, "scenarios")?;
    let n = cells.len();
    ensure(n >= SCENARIO_MIN, format!("{n} cells, need {SCENARIO_MIN}"))?;
    let name = |cell: &Value| cell.get("name").and_then(Value::as_str).map(String::from);
    for (i, cell) in cells.iter().enumerate() {
        let name = name(cell).ok_or_else(|| format!("cell {i} has no `name`"))?;
        num(cell, "b5_fp").map_err(|e| format!("cell {name}: {e}"))?;
    }
    // B5 counts of a named cell; in the paper's convention "fp" counts
    // missed Trojans and "fn" false alarms.
    let b5 = |cell: &str, key: &str| -> Result<f64, String> {
        let found = named(cells, cell).ok_or_else(|| format!("missing the cell {cell}"))?;
        num(found, key).map_err(|e| format!("cell {cell}: {e}"))
    };
    let (fp, fn_) = (b5(PAPER_CELL, "b5_fp")?, b5(PAPER_CELL, "b5_fn")?);
    let why = format!("paper cell B5 FP {fp} (<= 2), FN {fn_} (<= 8)");
    ensure(fp <= 2.0 && fn_ <= 8.0, why)?;
    // The multi-parameter story: a dormant payload is invisible to power
    // alone but caught by the full stack.
    let missed = |cell| Ok::<_, String>((b5(cell, "b5_fp")?, b5(cell, "b5_infested")?));
    let (blind, of) = missed(POWER_DORMANT_CELL)?;
    let why = format!("power alone sees the dormant payload (B5 FP {blind}/{of})");
    ensure(blind >= 0.9 * of, why)?;
    let (wide, of) = missed(FULL_STACK_DORMANT_CELL)?;
    let why = format!("the full stack misses the dormant payload (B5 FP {wide}/{of})");
    ensure(wide <= 0.3 * of, why)?;
    Ok(format!(
        "{n} cells; paper B5 {fp}/{fn_}, dormant missed by power {blind}, by full stack {wide}"
    ))
}

/// The cell of `cells` called `name`.
fn named<'a>(cells: &'a [Value], name: &str) -> Option<&'a Value> {
    cells
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
}

/// The `sweep` record: one entry per seed in every list of every cell,
/// `null` exactly where the run failed, no failed `paper` run, and the
/// `paper` cell's seed-42 B1–B5 counts equal to `scenarios`' paper cell.
fn seeds(r: &Value, scenarios: &Value) -> Result<String, String> {
    let seeds = list(r, "seeds")?;
    let first = seeds.first().and_then(Value::as_u64);
    let why = format!("`seeds` opens with {first:?}, not 42");
    ensure(first == Some(42), why)?;
    let cells = list(r, "cells")?;
    let mut failed = 0;
    for (i, cell) in cells.iter().enumerate() {
        let name = cell.get("name").and_then(Value::as_str);
        let name = name.ok_or_else(|| format!("cell {i} has no `name`"))?;
        let why = |e: String| format!("cell {name}: {e}");
        let errors = list(cell, "error").map_err(why)?;
        let Value::Object(fields) = cell else {
            return Err(why("not an object".into()));
        };
        for (key, value) in fields.iter().filter(|(k, _)| k != "name") {
            let Value::List(entries) = value else {
                return Err(why(format!("`{key}` is not a list")));
            };
            let (n, of) = (entries.len(), seeds.len());
            let short = format!("`{key}` has {n} entries for {of} seeds");
            ensure(n == of, why(short))?;
            if key == "error" {
                continue;
            }
            for ((entry, error), seed) in entries.iter().zip(errors).zip(seeds) {
                let (null, run_failed) = (*entry == Value::Null, error.as_str().is_some());
                let seed = record::write(seed);
                let (state, run) = match null {
                    true => ("is null", "not recorded as failed"),
                    false => ("has a value", "recorded as failed"),
                };
                let at = format!("`{key}` {state} at seed {}, a run {run}", seed.trim());
                ensure(null == run_failed, why(at))?;
            }
        }
        let n_failed = errors.iter().filter(|e| e.as_str().is_some()).count();
        let paper_failed = name == "paper" && n_failed > 0;
        ensure(!paper_failed, why(format!("{n_failed} failed runs")))?;
        failed += n_failed;
    }
    let paper = named(cells, "paper").ok_or("missing the cell paper")?;
    let table1 = named(list(scenarios, "scenarios")?, PAPER_CELL);
    let table1 = table1.ok_or_else(|| format!("{SCENARIOS_FILE} has no cell {PAPER_CELL}"))?;
    for b in BOUNDARIES {
        for key in [format!("{b}_fp"), format!("{b}_fn")] {
            let at_42 = list(paper, &key)?.first().and_then(Value::as_f64);
            let want =
                num(table1, &key).map_err(|e| format!("{SCENARIOS_FILE} {PAPER_CELL}: {e}"))?;
            let why = format!(
                "cell paper: seed-42 `{key}` {at_42:?}, but {SCENARIOS_FILE} {PAPER_CELL} has {want}"
            );
            ensure(at_42 == Some(want), why)?;
        }
    }
    Ok(format!(
        "{} cells x {} seeds, {failed} failed runs; paper at seed 42 is Table 1",
        cells.len(),
        seeds.len()
    ))
}

/// The parsed record at `path`.
fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => "missing".to_string(),
        _ => e.to_string(),
    })?;
    record::parse(&text).map_err(|e| e.to_string())
}

/// The seeds check of the record at `path`, reading its Table-1
/// reference from the `BENCH_scenarios.json` beside it.
fn seeds_file(path: &Path) -> Result<String, String> {
    let r = read(path)?;
    let scenarios = read(&path.with_file_name(SCENARIOS_FILE))
        .map_err(|e| format!("{SCENARIOS_FILE} to check against: {e}"))?;
    seeds(&r, &scenarios)
}

/// Every required record in `dir` with its summary, or why it fails.
fn check_all(dir: &Path) -> Vec<(&'static str, Result<String, String>)> {
    let checked = CHECKS.map(|(file, check)| (file, read(&dir.join(file)).and_then(|r| check(&r))));
    let seeds = (SEEDS_FILE, seeds_file(&dir.join(SEEDS_FILE)));
    checked.into_iter().chain([seeds]).collect()
}

fn main() -> ExitCode {
    Args::from_env(&Spec {
        usage: "bench-gate",
        switches: &[],
        options: &[],
        positional: (0, Kind::Text),
    });
    let mut failed = false;
    for (file, outcome) in check_all(Path::new(".")) {
        match outcome {
            Ok(summary) => println!("bench-gate: {file} OK ({summary})"),
            Err(why) => {
                println!("bench-gate: FAIL — {file}: {why}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("bench-gate: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }

    fn committed(file: &str) -> Value {
        read(&repo().join(file)).unwrap()
    }

    /// The committed record, rewritten and then edited as text.
    fn edited(file: &str, edit: impl Fn(&str) -> String) -> Value {
        record::parse(&edit(&record::write(&committed(file)))).unwrap()
    }

    #[test]
    fn every_committed_record_parses_and_passes_its_check() {
        for (file, _) in CHECKS {
            let record = committed(file);
            assert_eq!(record::parse(&record::write(&record)).as_ref(), Ok(&record));
        }
        let outcomes = check_all(repo());
        assert_eq!(outcomes.len(), CHECKS.len() + 1);
        for (file, outcome) in outcomes {
            let summary = outcome.unwrap_or_else(|e| panic!("{file}: {e}"));
            if file == SEEDS_FILE {
                assert!(summary.contains("x 16 seeds"), "{summary}");
            }
        }
    }

    #[test]
    fn a_missing_record_fails_naming_the_file() {
        let dir = std::env::temp_dir().join(format!("bench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = CHECKS.map(|(file, _)| file);
        for file in files.iter().chain([&SEEDS_FILE]) {
            std::fs::copy(repo().join(file), dir.join(file)).unwrap();
        }
        for missing in files.iter().chain([&SEEDS_FILE]) {
            std::fs::remove_file(dir.join(missing)).unwrap();
            let failed: Vec<_> = check_all(&dir)
                .into_iter()
                .filter_map(|(file, outcome)| Some((file, outcome.err()?)))
                .collect();
            let want = (*missing, "missing".to_string());
            // Without its Table-1 reference the seeds record fails too.
            let seeds = (
                SEEDS_FILE,
                format!("{SCENARIOS_FILE} to check against: missing"),
            );
            let expected = match *missing {
                SCENARIOS_FILE => vec![want, seeds],
                _ => vec![want],
            };
            assert_eq!(failed, expected);
            std::fs::copy(repo().join(missing), dir.join(missing)).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Three of the cases the line-regex shell gate got wrong.

    #[test]
    fn minified_drift_record_passes() {
        let text = record::write(&committed("BENCH_drift.json"));
        let minified: String = text.split_whitespace().collect();
        assert!(!minified.contains('\n'));
        let summary = drift(&record::parse(&minified).unwrap()).unwrap();
        assert!(summary.contains("4.8x"), "{summary}");
    }

    #[test]
    fn scenario_story_cells_are_required() {
        let mut r = committed("BENCH_scenarios.json");
        let Some((_, Value::List(cells))) = (match &mut r {
            Value::Object(top) => top.iter_mut().find(|(k, _)| k == "scenarios"),
            _ => None,
        }) else {
            panic!("no scenarios list")
        };
        cells.retain(|c| {
            let name = c.get("name").and_then(Value::as_str);
            name != Some(POWER_DORMANT_CELL) && name != Some(FULL_STACK_DORMANT_CELL)
        });
        assert_eq!(cells.len(), 14);
        let err = scenarios(&r).unwrap_err();
        assert!(err.contains(POWER_DORMANT_CELL), "{err}");
    }

    #[test]
    fn null_paper_cell_b5_fn_fails() {
        let r = edited("BENCH_scenarios.json", |t| {
            t.replacen("\"b5_fn\": 0,", "\"b5_fn\": null,", 1)
        });
        let err = scenarios(&r).unwrap_err();
        assert!(
            err.contains(PAPER_CELL) && err.contains("`b5_fn` is null"),
            "{err}"
        );
    }

    /// The committed seeds record with the first `"key": [` list of the
    /// cell `cell` edited as text.
    fn seeds_with(cell: &str, key: &str, edit: impl Fn(&str) -> String) -> Result<String, String> {
        let text = record::write(&committed(SEEDS_FILE));
        let at = text.find(&format!("\"name\": \"{cell}\"")).unwrap();
        let open = at + text[at..].find(&format!("\"{key}\": [")).unwrap();
        let close = open + text[open..].find(']').unwrap() + 1;
        let edited = format!(
            "{}{}{}",
            &text[..open],
            edit(&text[open..close]),
            &text[close..]
        );
        seeds(&record::parse(&edited).unwrap(), &committed(SCENARIOS_FILE))
    }

    #[test]
    fn truncated_seed_list_fails_naming_the_cell() {
        let err = seeds_with("kde/h=0.1,alpha=0", "b4_fn", |l| {
            let last = l.rfind(',').unwrap();
            format!("{}]", &l[..last])
        })
        .unwrap_err();
        assert!(
            err.starts_with("cell kde/h=0.1,alpha=0: `b4_fn` has 15 entries for 16 seeds"),
            "{err}"
        );
    }

    #[test]
    fn null_paper_cell_count_fails_naming_the_cell() {
        let err = seeds_with("paper", "b5_fn", |l| l.replacen("[0,", "[null,", 1)).unwrap_err();
        assert!(
            err.starts_with("cell paper: `b5_fn` is null at seed 42"),
            "{err}"
        );
    }

    #[test]
    fn value_for_a_failed_run_fails() {
        let err = seeds_with("paper", "error", |l| l.replacen("null", "\"boom\"", 1));
        let err = err.unwrap_err();
        assert!(
            err.starts_with("cell paper: `b1_fp` has a value at seed 42, a run recorded as failed"),
            "{err}"
        );
    }

    #[test]
    fn failed_paper_run_fails() {
        let mut r = committed(SEEDS_FILE);
        let Value::Object(top) = &mut r else {
            panic!("not an object")
        };
        let Some((_, Value::List(cells))) = top.iter_mut().find(|(k, _)| k == "cells") else {
            panic!("no cells list")
        };
        let Value::Object(paper) = &mut cells[0] else {
            panic!("paper is not an object")
        };
        for (key, value) in paper.iter_mut().filter(|(k, _)| k != "name") {
            let Value::List(entries) = value else {
                panic!("{key} is not a list")
            };
            entries[0] = match key.as_str() {
                "error" => Value::from("boom"),
                _ => Value::Null,
            };
        }
        let err = seeds(&r, &committed(SCENARIOS_FILE)).unwrap_err();
        assert_eq!(err, "cell paper: 1 failed runs");
    }

    #[test]
    fn mismatched_seed_42_count_fails_naming_the_cell() {
        let err = seeds_with("paper", "b3_fn", |l| l.replacen("[15,", "[16,", 1)).unwrap_err();
        assert!(
            err.contains("cell paper: seed-42 `b3_fn` Some(16.0), but") && err.contains(PAPER_CELL),
            "{err}"
        );
    }

    #[test]
    fn seeds_must_open_with_42() {
        let err = seeds_with("paper", "b1_fp", |l| l.to_string());
        assert!(err.is_ok(), "{err:?}");
        let mut r = committed(SEEDS_FILE);
        if let Value::Object(fields) = &mut r {
            fields[1].1 = Value::List(vec![Value::Int(1)]);
        }
        let err = seeds(&r, &committed(SCENARIOS_FILE)).unwrap_err();
        assert!(err.contains("opens with Some(1), not 42"), "{err}");
    }

    #[test]
    fn breached_floors_fail() {
        let r = edited("BENCH_drift.json", |t| t.replace("4.786", "2.9"));
        assert!(
            drift(&r).unwrap_err().contains("below the 3x floor"),
            "{:?}",
            drift(&r)
        );
        let r = edited("BENCH_throughput.json", |t| t.replace("906.8", "99.0"));
        assert!(throughput(&r).is_err());
    }
}
