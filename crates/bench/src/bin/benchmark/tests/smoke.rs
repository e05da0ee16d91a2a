//! Minimal-size run of every workload, untraced and traced: each must pass
//! its own output checks and emit every metric `BENCHMARK.json` lists.

use sidefp_benchmark::catalog::is_time_unit;
use sidefp_benchmark::json::Json;
use sidefp_benchmark::{peak_heap_mib, run_workload, Budget, Scale, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn every_workload_emits_every_metric_at_minimal_size() {
    let spec = benchmark_json();
    let budget = Budget {
        seconds: 600.0,
        max_ops: 2,
    };
    for workload in Workload::ALL {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut report = run_workload(workload, 7, budget, Scale::tiny(), traced);
            if !traced {
                report = report.with_peak_heap(peak_heap_mib(workload, 7, Scale::tiny()));
            }
            let what = format!("{} traced={traced}", workload.name());
            assert!(report.correct, "{what}: {:#?}", report.notes);
            assert_eq!(report.attempted, 2, "{what}");
            assert_eq!(report.trace_jsonl.is_some(), traced, "{what}");
            let line = Json::parse(&report.json_line()).expect("result line parses");
            let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
            let listed = spec.get(section).and_then(Json::as_array).unwrap();
            assert_eq!(metrics.len(), listed.len(), "{what}");
            for def in listed {
                let name = def.get("name").and_then(Json::as_str).unwrap();
                let unit = def.get("unit").and_then(Json::as_str).unwrap();
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{what}: {name} missing"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{what}"
                );
                let value = metric.get("value").and_then(Json::as_f64).unwrap();
                // Every time a workload reports was measured, never a
                // placeholder: end-to-end metrics and per-layer times are
                // positive. The fork/join difference may read 0 on one core.
                let must_be_positive =
                    !traced || (is_time_unit(unit) && name != "parallel.fork_join_us");
                if must_be_positive {
                    assert!(value > 0.0, "{what}: {name} = {value}");
                }
            }
        }
    }
}
