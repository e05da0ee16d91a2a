//! The traced pass's bookkeeping: spans recorded around calls into each
//! layer, and the raw per-layer samples the per-layer metrics are reduced
//! from.

use std::collections::BTreeMap;
use std::time::Instant;

use sidefp_core::{RunContext, TraceEvent};

use crate::catalog::PER_LAYER;
use crate::json::{number, quote};
use crate::stats::median;

/// One span. Spans the benchmark times itself carry start and end
/// offsets; sub-stage spans read from a `RunContext` timing table carry
/// only a duration, because the program records durations, not
/// timestamps.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer or call name (e.g. `premanufacturing`, `kmm`).
    pub name: String,
    /// Workload that produced the span.
    pub workload: &'static str,
    /// Operation index within the run; spans of one op share it.
    pub op: usize,
    /// Start offset from the run's origin, in µs.
    pub start_us: Option<f64>,
    /// End offset from the run's origin, in µs.
    pub end_us: Option<f64>,
    /// Duration in µs.
    pub dur_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// An empty log for one workload run.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; `f` receives the tracer and the
    /// new span's id so it can open child spans. Returns `f`'s value and
    /// the span's duration in ms.
    pub fn span<T>(
        &mut self,
        name: &str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start = self.now_us();
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            workload: self.workload,
            op,
            start_us: Some(start),
            end_us: None,
            dur_us: 0.0,
            parent,
        });
        let value = f(self, id);
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = Some(end);
        span.dur_us = end - start;
        (value, span.dur_us / 1e3)
    }

    /// Adds the stages `ctx` recorded since `mark` as duration-only
    /// spans under `parent`. Nesting comes from the context's
    /// `stage_start`/`stage_end` events, durations from its timing table;
    /// a stage entered several times splits its accumulated time evenly.
    pub fn stages(&mut self, parent: usize, op: usize, ctx: &RunContext, mark: &Mark) {
        let events: Vec<TraceEvent> = ctx
            .trace_events()
            .into_iter()
            .filter(|r| r.seq >= mark.seq)
            .map(|r| r.event)
            .collect();
        let timings = ctx.timing_snapshot();
        let mut stack = vec![parent];
        for event in &events {
            match event {
                TraceEvent::StageStart { stage } => {
                    let entries = events
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::StageStart { stage: s } if s == stage))
                        .count();
                    let total = lookup(&timings, stage) - lookup(&mark.timings, stage);
                    self.spans.push(SpanRecord {
                        name: stage.clone(),
                        workload: self.workload,
                        op,
                        start_us: None,
                        end_us: None,
                        dur_us: total.max(0.0) * 1e3 / entries as f64,
                        parent: stack.last().copied(),
                    });
                    stack.push(self.spans.len() - 1);
                }
                TraceEvent::StageEnd { .. } if stack.len() > 1 => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The log as JSONL: one object per span with `id`, `name`,
    /// `workload`, `op`, `start_us`, `end_us`, `dur_us` and `parent`.
    pub fn jsonl(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_owned(), number);
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":{},\"workload\":{},\"op\":{},\"start_us\":{},\
                 \"end_us\":{},\"dur_us\":{},\"parent\":{}}}\n",
                quote(&s.name),
                quote(s.workload),
                s.op,
                opt(s.start_us),
                opt(s.end_us),
                number(s.dur_us),
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            ));
        }
        out
    }

    /// Per span name: how many spans, and the median duration and median
    /// self time (duration minus the duration of direct children) in ms.
    pub fn self_times(&self) -> Vec<(String, usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let entry = by_name.entry(&s.name).or_default();
            entry.0.push(s.dur_us / 1e3);
            entry.1.push((s.dur_us - child).max(0.0) / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (dur, own))| (name.to_owned(), dur.len(), median(&dur), median(&own)))
            .collect()
    }
}

/// A point in a `RunContext`'s history: its next trace sequence number and
/// its timing table, so later stages can be told apart from earlier ones.
#[derive(Debug, Default)]
pub struct Mark {
    seq: u64,
    timings: Vec<(String, f64)>,
}

impl Mark {
    /// Marks `ctx` as it is now.
    pub fn of(ctx: &RunContext) -> Mark {
        Mark {
            seq: ctx.trace_events().last().map_or(0, |r| r.seq + 1),
            timings: ctx.timing_snapshot(),
        }
    }
}

fn lookup(timings: &[(String, f64)], key: &str) -> f64 {
    timings
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, ms)| *ms)
}

/// Raw per-layer samples keyed by series name. Series whose name is a
/// per-layer metric reduce to their median; the rest feed the derived
/// metrics in [`Series::layer_metrics`].
#[derive(Debug, Default)]
pub struct Series(BTreeMap<String, Vec<f64>>);

impl Series {
    /// Appends one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    /// All samples of `name` (empty if never pushed).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    fn ratio_of_medians(&self, num: &str, den: &str) -> f64 {
        let d = median(self.get(den));
        if d > 0.0 {
            median(self.get(num)) / d
        } else {
            0.0
        }
    }

    fn ratio_of_sums(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d > 0.0 {
            self.sum(num) / d
        } else {
            0.0
        }
    }

    /// Reduces the samples to one value per per-layer metric, in catalog
    /// order. Layers without samples read 0.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|def| {
                let value = match def.name {
                    "parallel.speedup" => self.ratio_of_medians("w1.total", "w2.total"),
                    name if name.starts_with("parallel.speedup.") => {
                        let stage = &name["parallel.speedup.".len()..];
                        self.ratio_of_medians(&format!("w1.{stage}"), &format!("w2.{stage}"))
                    }
                    "score.sanitize_rows_per_s.clean" => {
                        1e3 * self.ratio_of_sums("score.rows_in.clean", "score.sanitize_ms.clean")
                    }
                    "score.sanitize_rows_per_s.faulted" => {
                        1e3 * self
                            .ratio_of_sums("score.rows_in.faulted", "score.sanitize_ms.faulted")
                    }
                    "score.boundary_rows_per_s" => {
                        1e3 * self.ratio_of_sums("score.rows_kept", "score.boundaries_ms")
                    }
                    "score.kernel_evals_per_s" => {
                        1e3 * self.ratio_of_sums("score.kernel_evals", "score.boundaries_ms")
                    }
                    "score.sanitize_share" => {
                        let sanitize = self.sum("score.sanitize_ms.clean")
                            + self.sum("score.sanitize_ms.faulted");
                        let total = sanitize + self.sum("score.boundaries_ms");
                        if total > 0.0 {
                            sanitize / total
                        } else {
                            0.0
                        }
                    }
                    "score.kept_ratio" => {
                        self.ratio_of_sums("score.kept.faulted", "score.rows_in.faulted")
                    }
                    "recal.incremental_speedup" => {
                        self.ratio_of_medians("recal.refit_lot_ms", "recal.incremental_lot_ms")
                    }
                    "trace.overhead_pct" => {
                        100.0 * (self.ratio_of_medians("op.traced_ms", "op.untraced_ms") - 1.0)
                    }
                    "b5.missed_trojan_rate" => self.ratio_of_sums("b5.missed", "b5.infested"),
                    "b5.false_alarm_rate" => self.ratio_of_sums("b5.false_alarms", "b5.free"),
                    name => median(self.get(name)),
                };
                (def.name, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new("paper-fit");
        let ctx = RunContext::new();
        drop(ctx.span("before"));
        let ((), _) = t.span("op", 0, None, |t, id| {
            let mark = Mark::of(&ctx);
            {
                let _outer = ctx.span("outer");
                drop(ctx.span("inner"));
            }
            t.stages(id, 0, &ctx, &mark);
            let _ = t.span("timed", 0, Some(id), |_, _| ());
        });
        // `before` predates the mark; `inner` nests inside `outer`.
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "outer", "inner", "timed"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
        assert!(t.spans()[0].end_us.is_some() && t.spans()[1].start_us.is_none());
        let summary = t.self_times();
        let op = summary.iter().find(|(n, ..)| n == "op").unwrap();
        assert!(op.3 <= op.2);
        let jsonl = t.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("outer"));
        assert_eq!(first.get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(first.get("start_us"), Some(&crate::json::Json::Null));
    }

    #[test]
    fn layer_metrics_cover_the_catalog_and_derive_ratios() {
        let mut s = Series::default();
        for v in [100.0, 120.0, 110.0] {
            s.push("w1.total", v * 2.0);
            s.push("w2.total", v);
        }
        s.push("pre.ms", 12.0);
        s.push("b5.missed", 3.0);
        s.push("b5.infested", 80.0);
        s.push("b5.missed", 1.0);
        s.push("b5.infested", 80.0);
        let m: BTreeMap<_, _> = s.layer_metrics().into_iter().collect();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["parallel.speedup"], 2.0);
        assert_eq!(m["pre.ms"], 12.0);
        assert_eq!(m["b5.missed_trojan_rate"], 4.0 / 160.0);
        assert_eq!(m["recal.incremental_speedup"], 0.0);
    }
}
