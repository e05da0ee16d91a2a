//! Typed checks of the committed `BENCH_*.json` records, the evidence
//! behind the repo's performance and correctness claims.
//!
//! ```text
//! bench-gate   # check the BENCH_*.json records in the working directory
//! ```
//!
//! Records are read with [`sidefp_bench::record`], the module the bench
//! binaries write them with. A missing file, or a missing, `null` or
//! non-numeric gated field, fails, naming the file and the field.
//! Correctness claims are gated on `BENCH_seeds.json` as seed counts: each
//! of [`FLOORS`] must hold at a given number of the sweep's 16 seeds.

use std::path::Path;
use std::process::ExitCode;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::record::{self, Value};

const DRIFT_RATIO_FLOOR: f64 = 3.0;
const AMORTIZATION_FLOOR: f64 = 100.0;

/// One check per record: a summary if the record holds, else why not.
type Check = fn(&Value) -> Result<String, String>;

const CHECKS: [(&str, Check); 3] = [
    ("BENCH_drift.json", drift),
    ("BENCH_throughput.json", throughput),
    ("BENCH_seeds.json", seeds),
];

/// A run's count under a key (`b5_fn`, …); NaN where the run has none.
type Counts<'a> = dyn Fn(&str) -> f64 + 'a;

/// Whether one run satisfies a floor. Every predicate compares counts, so
/// a failed run (NaN) never satisfies one.
type Holds = fn(&Counts) -> bool;

/// Seed-count floors on `BENCH_seeds.json`: `(cell, what, min_seeds,
/// holds)` — at least `min_seeds` runs of `cell` satisfy `holds`. FP
/// counts missed Trojans and FN false alarms (paper conventions). Each
/// floor is the count the committed record measures.
const FLOORS: [(&str, &str, usize, Holds); 7] = [
    ("paper", "B1 and B2 FN = 40", 16, |n| {
        n("b1_fn") == 40.0 && n("b2_fn") == 40.0
    }),
    ("paper", "B5 FN <= 8", 14, |n| n("b5_fn") <= 8.0),
    ("paper", "B5 FP <= 2 and FN <= 8", 7, |n| {
        n("b5_fp") <= 2.0 && n("b5_fn") <= 8.0
    }),
    ("paper", "B5 FP <= golden FP + 2", 13, |n| {
        n("b5_fp") <= n("golden_fp") + 2.0
    }),
    ("paper", "B4 FN < B3 FN", 6, |n| n("b4_fn") < n("b3_fn")),
    ("scenario/power,dormant,tt", "B5 FP >= 36", 14, |n| {
        n("b5_fp") >= 36.0
    }),
    (
        "scenario/power+iddt+delay+spectral,dormant,tt",
        "B5 FP <= 12 and FN < 40",
        11,
        |n| n("b5_fp") <= 12.0 && n("b5_fn") < 40.0,
    ),
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

/// The cell of `cells` called `name`.
fn named<'a>(cells: &'a [Value], name: &str) -> Option<&'a Value> {
    cells
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
}

/// Whether `cell`'s run at seed index `i` satisfies `holds`.
fn holds_at(cell: &Value, i: usize, holds: Holds) -> bool {
    let at = |key: &str| list(cell, key).ok().and_then(|l| l.get(i)?.as_f64());
    holds(&|key| at(key).unwrap_or(f64::NAN))
}

/// The `sweep` record: one entry per seed in every list of every cell,
/// `null` exactly where the run failed, no failed `paper` run, and every
/// floor of [`FLOORS`] met.
fn seeds(r: &Value) -> Result<String, String> {
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
    let mut short = vec![];
    for (name, what, min_seeds, holds) in FLOORS {
        let cell = named(cells, name).ok_or_else(|| format!("missing the cell {name}"))?;
        let of = seeds.len();
        let n = (0..of).filter(|&i| holds_at(cell, i, holds)).count();
        if n < min_seeds {
            short.push(format!(
                "cell {name}: {what} holds at {n} of {of} seeds, floor {min_seeds}"
            ));
        }
    }
    ensure(short.is_empty(), short.join("; "))?;
    Ok(format!(
        "{} cells x {} seeds, {failed} failed runs, {} seed-count floors met",
        cells.len(),
        seeds.len(),
        FLOORS.len()
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

/// Every required record in `dir` with its summary, or why it fails.
fn check_all(dir: &Path) -> Vec<(&'static str, Result<String, String>)> {
    let checked = CHECKS.map(|(file, check)| (file, read(&dir.join(file)).and_then(|r| check(&r))));
    checked.into()
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

    const SEEDS_FILE: &str = "BENCH_seeds.json";

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

    /// The cells of a seeds record, for editing.
    fn cells_of(r: &mut Value) -> &mut Vec<Value> {
        let Value::Object(top) = r else {
            panic!("not an object")
        };
        match top.iter_mut().find(|(k, _)| k == "cells") {
            Some((_, Value::List(cells))) => cells,
            _ => panic!("no cells list"),
        }
    }

    #[test]
    fn every_committed_record_parses_and_passes_its_check() {
        for (file, _) in CHECKS {
            let record = committed(file);
            assert_eq!(record::parse(&record::write(&record)).as_ref(), Ok(&record));
        }
        let outcomes = check_all(repo());
        assert_eq!(outcomes.len(), CHECKS.len());
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
        for file in files {
            std::fs::copy(repo().join(file), dir.join(file)).unwrap();
        }
        for missing in files {
            std::fs::remove_file(dir.join(missing)).unwrap();
            let failed: Vec<_> = check_all(&dir)
                .into_iter()
                .filter_map(|(file, outcome)| Some((file, outcome.err()?)))
                .collect();
            assert_eq!(failed, [(missing, "missing".to_string())]);
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
        let power = "scenario/power,dormant,tt";
        let full_stack = "scenario/power+iddt+delay+spectral,dormant,tt";
        let mut r = committed(SEEDS_FILE);
        let cells = cells_of(&mut r);
        let n = cells.len();
        cells.retain(|c| {
            let name = c.get("name").and_then(Value::as_str);
            name != Some(power) && name != Some(full_stack)
        });
        assert_eq!(cells.len(), n - 2);
        let err = seeds(&r).unwrap_err();
        assert_eq!(err, format!("missing the cell {power}"));
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
        seeds(&record::parse(&edited).unwrap())
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
        let Value::Object(paper) = &mut cells_of(&mut r)[0] else {
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
        let err = seeds(&r).unwrap_err();
        assert_eq!(err, "cell paper: 1 failed runs");
    }

    #[test]
    fn seeds_must_open_with_42() {
        let err = seeds_with("paper", "b1_fp", |l| l.to_string());
        assert!(err.is_ok(), "{err:?}");
        let mut r = committed(SEEDS_FILE);
        if let Value::Object(fields) = &mut r {
            fields[1].1 = Value::List(vec![Value::Int(1)]);
        }
        let err = seeds(&r).unwrap_err();
        assert!(err.contains("opens with Some(1), not 42"), "{err}");
    }

    /// Sets `key` of the cell of `FLOORS[floor]` to `value` at the first
    /// seed where the floor holds, and checks that the gate then fails
    /// naming the cell and the floor, one seed short of it (the edit may
    /// break other floors too).
    fn breach(floor: usize, key: &str, value: i128) {
        let (name, what, min_seeds, holds) = FLOORS[floor];
        let mut r = committed(SEEDS_FILE);
        let cells = cells_of(&mut r);
        let at = |c: &Value| c.get("name").and_then(Value::as_str) == Some(name);
        let cell = cells.iter_mut().find(|c| at(c)).unwrap();
        let seed = (0..16).find(|&i| holds_at(cell, i, holds)).unwrap();
        let Value::Object(fields) = cell else {
            panic!("{name} is not an object")
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, Value::List(entries))) => entries[seed] = Value::Int(value),
            _ => panic!("{name} has no list {key}"),
        }
        assert!(!holds_at(cell, seed, holds), "{name}: {what} still holds");
        let err = seeds(&r).unwrap_err();
        let short = min_seeds - 1;
        let want = format!("cell {name}: {what} holds at {short} of 16 seeds, floor {min_seeds}");
        assert!(err.split("; ").any(|e| e == want), "{err}");
    }

    #[test]
    fn paper_blind_b1_b2_floor_fails_when_a_seed_breaks_it() {
        breach(0, "b1_fn", 39);
    }

    #[test]
    fn paper_b5_false_alarm_floor_fails_when_a_seed_breaks_it() {
        breach(1, "b5_fn", 9);
    }

    #[test]
    fn paper_b5_seed_42_gate_floor_fails_when_a_seed_breaks_it() {
        breach(2, "b5_fp", 3);
    }

    #[test]
    fn paper_b5_versus_golden_floor_fails_when_a_seed_breaks_it() {
        breach(3, "b5_fp", 80);
    }

    #[test]
    fn paper_b4_below_b3_floor_fails_when_a_seed_breaks_it() {
        breach(4, "b4_fn", 40);
    }

    #[test]
    fn power_blind_to_dormant_floor_fails_when_a_seed_breaks_it() {
        breach(5, "b5_fp", 0);
    }

    #[test]
    fn full_stack_catches_dormant_floor_fails_when_a_seed_breaks_it() {
        breach(6, "b5_fn", 40);
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
