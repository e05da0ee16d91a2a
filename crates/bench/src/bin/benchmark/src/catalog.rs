//! Every metric the benchmark reports, with its unit and better-direction.
//! `BENCHMARK.json` at the repository root mirrors these tables; a unit
//! test keeps the two in step.

use crate::stats::Better;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them. The bounds come from the measured spreads and
/// between-set shifts in the package README.
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_p50_ms", "ms", Lower, 0.2),
    e2e("latency_p75_ms", "ms", Lower, 0.2),
    e2e("chips_per_s", "1/s", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mib", "MiB", Lower, 0.05),
];

/// Per-layer metrics, measured by the traced pass. Layers a workload does
/// not run read 0; every such metric is a count, rate or ratio, never a
/// time, so a 0 always means "no work" rather than "instant".
pub const PER_LAYER: &[MetricDef] = &[
    // core::stages::premanufacturing
    layer("pre.ms", "ms", Lower),
    layer("pre.mc_ms", "ms", Lower),
    layer("pre.regression_ms", "ms", Lower),
    layer("pre.kde_ms", "ms", Lower),
    layer("pre.b1_ms", "ms", Lower),
    layer("pre.b2_ms", "ms", Lower),
    // core::stages::silicon_stage
    layer("si.ms", "ms", Lower),
    layer("si.measure_ms", "ms", Lower),
    layer("si.kmm_ms", "ms", Lower),
    layer("si.kde_ms", "ms", Lower),
    layer("si.b3_ms", "ms", Lower),
    layer("si.b4_ms", "ms", Lower),
    layer("si.b5_ms", "ms", Lower),
    // core::stages::trojan_test + core::golden_baseline
    layer("eval.ms", "ms", Lower),
    // stats::ocsvm / qp::smo
    layer("ocsvm.smo_iters", "count", Lower),
    layer("ocsvm.smo_iters.b2", "count", Lower),
    layer("ocsvm.smo_iters.b5", "count", Lower),
    layer("ocsvm.support_vectors", "count", Lower),
    layer("ocsvm.smo_relaxed", "count", Lower),
    layer("ocsvm.smo_nonconverged", "count", Lower),
    layer("ocsvm.replay_fit_ms.b2", "ms", Lower),
    layer("ocsvm.replay_fit_ms.b5", "ms", Lower),
    // stats::kmm / qp::projected_gradient
    layer("kmm.qp_nonconverged", "count", Lower),
    layer("kmm.qp_relaxed", "count", Lower),
    layer("kmm.replay_ms", "ms", Lower),
    // stats::kde
    layer("kde.samples_per_s", "1/s", Higher),
    // linalg::gemm / vecops
    layer("gemm.gram_gflops", "GFLOP/s", Higher),
    layer("gemm.score_gflops", "GFLOP/s", Higher),
    layer("gemm.square_gflops", "GFLOP/s", Higher),
    layer("vecops.exp_ns", "ns", Lower),
    // parallel
    layer("parallel.speedup", "ratio", Higher),
    layer("parallel.speedup.mc", "ratio", Higher),
    layer("parallel.speedup.measure", "ratio", Higher),
    layer("parallel.speedup.regression", "ratio", Higher),
    layer("parallel.speedup.kde", "ratio", Higher),
    layer("parallel.speedup.kmm", "ratio", Higher),
    layer("parallel.speedup.b2", "ratio", Higher),
    layer("parallel.speedup.b5", "ratio", Higher),
    layer("parallel.fork_join_us", "us", Lower),
    // core::score (lot-scoring only)
    layer("score.sanitize_rows_per_s.clean", "1/s", Higher),
    layer("score.sanitize_rows_per_s.faulted", "1/s", Higher),
    layer("score.boundary_rows_per_s", "1/s", Higher),
    layer("score.kernel_evals_per_s", "1/s", Higher),
    layer("score.sanitize_share", "ratio", Lower),
    layer("score.kept_ratio", "ratio", Higher),
    // core::artifact (lot-scoring only)
    layer("artifact.bytes", "bytes", Lower),
    layer("artifact.encode_mb_per_s", "MB/s", Higher),
    layer("artifact.decode_mb_per_s", "MB/s", Higher),
    // core::stages::recalibrate (drift-stream only)
    layer("recal.accept_share", "ratio", Higher),
    layer("recal.incremental_share", "ratio", Higher),
    layer("recal.refit_share", "ratio", Lower),
    layer("recal.escalations_per_lot", "ratio", Lower),
    layer("recal.selfcheck_failures_per_lot", "ratio", Lower),
    layer("recal.incremental_speedup", "ratio", Higher),
    // process
    layer("mem.minor_faults_per_op", "count", Lower),
    layer("mem.peak_rss_mib", "MiB", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // host speed during the traced run (per-layer times are wall-clock)
    layer("host.reference_ms", "ms", Lower),
    // detection quality of the B5 boundary, summed over the run's Table-1 rows
    layer("b5.missed_trojan_rate", "ratio", Lower),
    layer("b5.false_alarm_rate", "ratio", Lower),
];

/// `true` for units that measure elapsed time.
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check(section: &[Json], defs: &[MetricDef]) {
        assert_eq!(section.len(), defs.len());
        for (entry, def) in section.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let json = benchmark_json();
        let section = |key: &str| json.get(key).and_then(Json::as_array).unwrap().to_vec();
        check(&section("end_to_end"), END_TO_END);
        check(&section("per_layer"), PER_LAYER);
        let workloads: Vec<String> = section("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let expected: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn names_are_unique_and_bounds_sane() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
