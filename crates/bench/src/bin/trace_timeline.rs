//! Renders a run's JSONL trace ring as a per-run span timeline.
//!
//! Usage:
//!
//! ```text
//! trace-timeline <trace.jsonl> [--markdown] [--out PATH]
//! trace-timeline --demo [--markdown] [--out PATH]
//! ```
//!
//! The input is the JSONL produced by `RunContext::trace_jsonl()` (one
//! record per line: `stage_start` / `stage_end` span brackets plus the
//! point events — rescues, model fits, quarantines, lot decisions,
//! scored batches). The timeline pairs the span brackets with a stack,
//! indents by nesting depth, and annotates every point event at the
//! depth it occurred, so a run reads top-to-bottom as the pipeline
//! actually executed. `--demo` runs a small in-process experiment and
//! renders its own trace, which makes the renderer self-checking
//! without an input file.
//!
//! Ring-overflow tolerance: the trace ring drops its *oldest* records,
//! so a file may open mid-span. Unmatched `stage_end` records are
//! rendered (flagged `unmatched`) rather than rejected, and spans still
//! open at end-of-file are listed as unclosed.

use std::fmt::Write as _;

use sidefp_bench::args::{Args, Kind, Spec};
use sidefp_bench::record::{self, Value};
use sidefp_core::{ExperimentConfig, PaperExperiment, RunContext};

const USAGE: &str = "trace-timeline (<trace.jsonl> | --demo) [--markdown] [--out PATH]";

/// One rendered timeline row.
struct Row {
    seq: u64,
    depth: usize,
    /// "open" / "close" / "event".
    kind: &'static str,
    text: String,
}

/// Parses the JSONL trace into indented timeline rows plus the list of
/// spans still open at end-of-input.
fn build_rows(jsonl: &str) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut stack: Vec<String> = Vec::new();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let record = record::parse(line).unwrap_or(Value::Null);
        let get_str = |key: &str| {
            let value = record.get(key).and_then(Value::as_str);
            value.unwrap_or_default().to_string()
        };
        let get_num = |key: &str| record.get(key).and_then(Value::as_u64).unwrap_or(0);
        let seq = get_num("seq");
        let ty = record.get("type").and_then(Value::as_str).unwrap_or("?");
        match ty {
            "stage_start" => {
                let stage = get_str("stage");
                rows.push(Row {
                    seq,
                    depth: stack.len(),
                    kind: "open",
                    text: stage.clone(),
                });
                stack.push(stage);
            }
            "stage_end" => {
                let stage = get_str("stage");
                let matched = stack.last().is_some_and(|s| *s == stage);
                if matched {
                    stack.pop();
                }
                rows.push(Row {
                    seq,
                    depth: stack.len(),
                    kind: "close",
                    text: if matched {
                        stage
                    } else {
                        format!("{stage} (unmatched)")
                    },
                });
            }
            other => {
                let text = match other {
                    "rescue" => format!(
                        "rescue: {} {} x{}",
                        get_str("solver"),
                        get_str("kind"),
                        get_num("count")
                    ),
                    "model_fit" => format!("model_fit: {} {}", get_str("model"), get_str("detail")),
                    "quarantine" => format!(
                        "quarantine: device {} ({})",
                        get_num("device"),
                        get_str("reason")
                    ),
                    "lot_decision" => format!(
                        "lot {}: {} — {}",
                        get_num("lot"),
                        get_str("decision"),
                        get_str("detail")
                    ),
                    "batch_scored" => format!(
                        "batch {}: {} devices, {} kept, {} flagged",
                        get_num("batch"),
                        get_num("devices"),
                        get_num("kept"),
                        get_num("flagged")
                    ),
                    _ => format!("{ty}: {line}"),
                };
                rows.push(Row {
                    seq,
                    depth: stack.len(),
                    kind: "event",
                    text,
                });
            }
        }
    }
    (rows, stack)
}

/// Renders the rows as a plain-text timeline.
fn render_text(rows: &[Row], open: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>6}  timeline", "seq");
    for r in rows {
        let indent = "  ".repeat(r.depth);
        let marker = match r.kind {
            "open" => "+",
            "close" => "-",
            _ => ".",
        };
        let _ = writeln!(out, "{:>6}  {indent}{marker} {}", r.seq, r.text);
    }
    if !open.is_empty() {
        let _ = writeln!(out, "unclosed at end of trace: {}", open.join(" > "));
    }
    out
}

/// Renders the rows as a nested markdown bullet list.
fn render_markdown(rows: &[Row], open: &[String]) -> String {
    let mut out = String::from("# Trace timeline\n\n");
    for r in rows {
        let indent = "  ".repeat(r.depth);
        let line = match r.kind {
            "open" => format!("**{}** (seq {})", r.text, r.seq),
            "close" => format!("end **{}** (seq {})", r.text, r.seq),
            _ => format!("{} (seq {})", r.text, r.seq),
        };
        let _ = writeln!(out, "{indent}- {line}");
    }
    if !open.is_empty() {
        let _ = writeln!(out, "\nUnclosed at end of trace: `{}`", open.join(" > "));
    }
    out
}

/// Runs a small in-process experiment and returns its trace JSONL.
fn demo_trace() -> Result<String, sidefp_core::CoreError> {
    let cfg = ExperimentConfig {
        chips: 10,
        mc_samples: 40,
        kde_samples: 1200,
        ..Default::default()
    };
    let ctx = RunContext::new();
    PaperExperiment::new(cfg)?.run_in_context(&ctx)?;
    Ok(ctx.trace_jsonl())
}

fn main() {
    let args = Args::from_env(&Spec {
        usage: USAGE,
        switches: &["--markdown", "--demo"],
        options: &[("--out", Kind::Text)],
        positional: (1, Kind::Text),
    });
    let (markdown, demo) = (args.switch("--markdown"), args.switch("--demo"));
    let out_path = args.text("--out");
    let input = args.positional().next();

    let jsonl = if demo {
        eprintln!("running the demo pipeline ...");
        match demo_trace() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace-timeline: demo pipeline failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let Some(path) = input else {
            eprintln!("error: no trace file; usage: {USAGE}");
            std::process::exit(2);
        };
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace-timeline: cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    };

    let (rows, open) = build_rows(&jsonl);
    let rendered = if markdown {
        render_markdown(&rows, &open)
    } else {
        render_text(&rows, &open)
    };

    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("trace-timeline: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path} ({} rows)", rows.len());
        }
        None => print!("{rendered}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring that overflowed mid-span: it opens on the `stage_end` of a
    /// span whose start was dropped and ends with `kmm` still open.
    const SAMPLE: &str = r#"{"seq":7,"type":"stage_end","stage":"mc"}
{"seq":8,"type":"stage_start","stage":"kmm"}
{"seq":9,"type":"quarantine","device":12,"reason":"dead \"device\"\nrow\u001f"}
{"seq":10,"type":"stage_start","stage":"boundary.B5"}
{"seq":11,"type":"rescue","solver":"smo","kind":"relaxed","count":2}
{"seq":12,"type":"stage_end","stage":"boundary.B5"}

{"seq":13,"type":"lot_decision","lot":3,"decision":"recalibrate","detail":"ewma z=4.20"}
{"seq":14,"type":"mystery","x":1}
"#;

    #[test]
    fn sample_trace_renders_nesting_escapes_and_overflow() {
        let (rows, open) = build_rows(SAMPLE);
        let shown: Vec<(u64, usize, &str, &str)> = rows
            .iter()
            .map(|r| (r.seq, r.depth, r.kind, r.text.as_str()))
            .collect();
        assert_eq!(
            shown,
            [
                (7, 0, "close", "mc (unmatched)"),
                (8, 0, "open", "kmm"),
                (
                    9,
                    1,
                    "event",
                    "quarantine: device 12 (dead \"device\"\nrow\u{1f})"
                ),
                (10, 1, "open", "boundary.B5"),
                (11, 2, "event", "rescue: smo relaxed x2"),
                (12, 1, "close", "boundary.B5"),
                (13, 1, "event", "lot 3: recalibrate — ewma z=4.20"),
                (
                    14,
                    1,
                    "event",
                    "mystery: {\"seq\":14,\"type\":\"mystery\",\"x\":1}"
                ),
            ]
        );
        assert_eq!(open, ["kmm"]);
        let text = render_text(&rows, &open);
        assert!(text.ends_with("unclosed at end of trace: kmm\n"), "{text}");
    }

    #[test]
    fn unparsable_lines_are_kept_as_unknown_events() {
        let (rows, open) = build_rows("{\"seq\":1,\"type\":\"stage_start\"\n");
        assert_eq!(rows[0].text, "?: {\"seq\":1,\"type\":\"stage_start\"");
        assert_eq!((rows[0].seq, open.len()), (0, 0));
    }
}
