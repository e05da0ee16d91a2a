//! Per-run observability for the sidefp pipeline.
//!
//! A [`RunContext`] is a cheap cloneable handle owning everything one
//! experiment run observes about itself:
//!
//! - **solver-health counters** ([`SolverHealth`]): every ridge-escalated
//!   factorization, relaxed-tolerance solver acceptance and degenerate
//!   bandwidth floor, tallied as plain atomics — increments are commutative
//!   and the pipeline performs a deterministic set of solver calls for a
//!   given seed, so a snapshot is bit-identical at any worker-pool size;
//! - **stage timings**: per-stage wall-clock accumulated under string keys
//!   via [`RunContext::span`] / [`RunContext::record_timing`];
//! - **a bounded trace-event ring** ([`TraceEvent`]): stage start/end,
//!   solver rescues, model fits and quarantine decisions, each stamped with
//!   a monotone sequence number and dumpable as JSONL
//!   ([`RunContext::trace_jsonl`]). Events carry no wall-clock fields, so
//!   the trace of a run is bit-reproducible given the seed (durations live
//!   only in the timing table).
//!
//! Ownership model: the experiment creates one context per run and threads
//! `&RunContext` through the stages and every instrumented solver. Two
//! concurrent runs in one process each observe exactly their own events —
//! there is no process-global registry to corrupt. (The process-global
//! registries that predated this crate are gone; context-free convenience
//! entry points construct a throwaway `RunContext` instead.)
//!
//! Internal mutexes recover from poisoning
//! (`lock().unwrap_or_else(PoisonError::into_inner)`): a panic on another
//! thread can never silently discard this run's telemetry.

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default capacity of the trace-event ring: generous for a full paper run
/// (a few dozen stage events plus one event per rescue/quarantine) while
/// bounding memory if a pathological config rescues every solve.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// The registries behind these mutexes hold plain counters and event
/// buffers — always valid regardless of where a panicking thread stopped —
/// so continuing with the poisoned state is strictly better than silently
/// dropping telemetry (the former `if let Ok(..)` shims no-opped after any
/// panic elsewhere in the process, leaving stale timings in the next
/// snapshot).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Snapshot of the solver-health counters — the "fallbacks taken" half of
/// the pipeline's `RunHealth` report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverHealth {
    /// Cholesky factorizations that needed ridge-jitter escalation.
    pub cholesky_retries: usize,
    /// LU factorizations that needed ridge-jitter escalation.
    pub lu_retries: usize,
    /// SMO runs accepted under the relaxed (100×) KKT tolerance.
    pub smo_relaxed: usize,
    /// SMO runs that missed even the relaxed tolerance (best-effort used).
    pub smo_nonconverged: usize,
    /// Projected-gradient QP runs accepted under the relaxed tolerance.
    pub qp_relaxed: usize,
    /// Projected-gradient QP runs that missed even the relaxed tolerance.
    pub qp_nonconverged: usize,
    /// KDE pilot densities floored to keep local bandwidths defined.
    pub kde_pilot_floors: usize,
}

impl SolverHealth {
    /// `true` if no solver needed any rescue.
    pub fn is_clean(&self) -> bool {
        *self == SolverHealth::default()
    }

    /// Total number of rescue events.
    pub fn total(&self) -> usize {
        self.cholesky_retries
            + self.lu_retries
            + self.smo_relaxed
            + self.smo_nonconverged
            + self.qp_relaxed
            + self.qp_nonconverged
            + self.kde_pilot_floors
    }
}

/// One structured trace event. Variants carry only deterministic fields
/// (names, counts, decisions) — never wall-clock values — so a run's trace
/// is bit-reproducible given its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A pipeline stage (or boundary fit) began.
    StageStart {
        /// Stage name as it appears in the timing table (e.g. `"kmm"`,
        /// `"boundary.B4"`).
        stage: String,
    },
    /// A pipeline stage finished; its duration is in the timing table.
    StageEnd {
        /// Stage name matching the corresponding [`TraceEvent::StageStart`].
        stage: String,
    },
    /// A solver accepted a rescued (relaxed / ridged / floored) solution.
    Rescue {
        /// Which solver ("smo", "qp", "cholesky", "kde").
        solver: &'static str,
        /// What kind of rescue ("relaxed", "nonconverged", "ridge_retry",
        /// "pilot_floor").
        kind: &'static str,
        /// How many individual rescues this event covers.
        count: usize,
    },
    /// A model fit completed (used for the MARS regression bank).
    ModelFit {
        /// Model family ("mars").
        model: &'static str,
        /// Deterministic fit summary (e.g. `"output=3 bases=7"`).
        detail: String,
    },
    /// The measurement sanitizer quarantined a device.
    Quarantine {
        /// Device row index in the raw measurement matrices.
        device: usize,
        /// Human-readable reason ("dead device", "duplicate device").
        reason: String,
    },
    /// A streaming-lot driver decided what to do with one wafer lot.
    LotDecision {
        /// Lot index in the stream (0-based).
        lot: usize,
        /// The tiered decision ("accept", "recalibrate", "refit").
        decision: &'static str,
        /// Deterministic decision detail (which chart alarmed, the drift
        /// statistic, or why an incremental update was escalated).
        detail: String,
    },
    /// The batch scoring engine finished one device batch.
    BatchScored {
        /// Batch index in the scoring stream (0-based).
        batch: usize,
        /// Devices submitted in the batch.
        devices: usize,
        /// Devices that survived sanitization and were scored.
        kept: usize,
        /// Scored devices flagged outside at least one trusted boundary.
        flagged: usize,
    },
}

/// A trace event stamped with its position in the run's event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotone per-context sequence number (0-based; gaps never occur —
    /// ring overflow drops the *oldest* records, not sequence numbers).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl TraceRecord {
    /// Renders the record as one JSON object (one JSONL line, no trailing
    /// newline). Schema: every line has `seq` and `type`; the remaining
    /// fields are per-type as documented on [`TraceEvent`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str(&format!("{{\"seq\":{},", self.seq));
        match &self.event {
            TraceEvent::StageStart { stage } => {
                out.push_str("\"type\":\"stage_start\",\"stage\":\"");
                escape_json(stage, &mut out);
                out.push('"');
            }
            TraceEvent::StageEnd { stage } => {
                out.push_str("\"type\":\"stage_end\",\"stage\":\"");
                escape_json(stage, &mut out);
                out.push('"');
            }
            TraceEvent::Rescue {
                solver,
                kind,
                count,
            } => {
                out.push_str("\"type\":\"rescue\",\"solver\":\"");
                escape_json(solver, &mut out);
                out.push_str("\",\"kind\":\"");
                escape_json(kind, &mut out);
                out.push_str(&format!("\",\"count\":{count}"));
            }
            TraceEvent::ModelFit { model, detail } => {
                out.push_str("\"type\":\"model_fit\",\"model\":\"");
                escape_json(model, &mut out);
                out.push_str("\",\"detail\":\"");
                escape_json(detail, &mut out);
                out.push('"');
            }
            TraceEvent::Quarantine { device, reason } => {
                out.push_str(&format!("\"type\":\"quarantine\",\"device\":{device},"));
                out.push_str("\"reason\":\"");
                escape_json(reason, &mut out);
                out.push('"');
            }
            TraceEvent::LotDecision {
                lot,
                decision,
                detail,
            } => {
                out.push_str(&format!("\"type\":\"lot_decision\",\"lot\":{lot},"));
                out.push_str("\"decision\":\"");
                escape_json(decision, &mut out);
                out.push_str("\",\"detail\":\"");
                escape_json(detail, &mut out);
                out.push('"');
            }
            TraceEvent::BatchScored {
                batch,
                devices,
                kept,
                flagged,
            } => {
                out.push_str(&format!(
                    "\"type\":\"batch_scored\",\"batch\":{batch},\
                     \"devices\":{devices},\"kept\":{kept},\"flagged\":{flagged}"
                ));
            }
        }
        out.push('}');
        out
    }
}

/// Atomic rescue counters; see [`SolverHealth`] for field semantics.
#[derive(Default)]
struct Counters {
    cholesky_retries: AtomicUsize,
    lu_retries: AtomicUsize,
    smo_relaxed: AtomicUsize,
    smo_nonconverged: AtomicUsize,
    qp_relaxed: AtomicUsize,
    qp_nonconverged: AtomicUsize,
    kde_pilot_floors: AtomicUsize,
}

/// Bounded FIFO of trace records plus the sequence/drop bookkeeping.
struct TraceRing {
    events: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    fn push(&mut self, event: TraceEvent) {
        let record = TraceRecord {
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(record);
    }
}

struct Inner {
    counters: Counters,
    timings: Mutex<BTreeMap<String, f64>>,
    trace: Mutex<TraceRing>,
}

/// Per-run observability context: solver-health counters, stage timings and
/// the bounded trace-event ring for one experiment run.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// run — hand a clone to whatever will read the telemetry after the run
/// while the pipeline records through its own reference.
///
/// # Example
///
/// ```
/// use sidefp_obs::RunContext;
///
/// let ctx = RunContext::new();
/// {
///     let _span = ctx.span("mc");
///     // ... stage body ...
/// }
/// ctx.record_smo_relaxed();
/// assert_eq!(ctx.timing_snapshot().len(), 1);
/// assert_eq!(ctx.solver_health().smo_relaxed, 1);
/// assert_eq!(ctx.trace_events().len(), 2); // stage_start + stage_end
/// ```
#[derive(Clone)]
pub struct RunContext {
    inner: Arc<Inner>,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext::new()
    }
}

impl fmt::Debug for RunContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunContext")
            .field("solver_health", &self.solver_health())
            .field("timed_stages", &self.timing_snapshot().len())
            .field("trace_events", &self.trace_len())
            .field("trace_dropped", &self.trace_dropped())
            .finish()
    }
}

impl RunContext {
    /// Creates an empty context with the default trace-ring capacity.
    pub fn new() -> Self {
        RunContext::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an empty context whose trace ring holds at most `capacity`
    /// events (oldest events are dropped first; `capacity` is clamped to at
    /// least 1).
    pub(crate) fn with_trace_capacity(capacity: usize) -> Self {
        RunContext {
            inner: Arc::new(Inner {
                counters: Counters::default(),
                timings: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(TraceRing {
                    events: VecDeque::new(),
                    capacity: capacity.max(1),
                    next_seq: 0,
                    dropped: 0,
                }),
            }),
        }
    }

    /// Clears counters, timings and the trace ring. Fresh runs should
    /// prefer a fresh context; this exists for callers that keep one
    /// long-lived context across logically separate phases.
    pub fn reset(&self) {
        let c = &self.inner.counters;
        for counter in [
            &c.cholesky_retries,
            &c.lu_retries,
            &c.smo_relaxed,
            &c.smo_nonconverged,
            &c.qp_relaxed,
            &c.qp_nonconverged,
            &c.kde_pilot_floors,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        lock_unpoisoned(&self.inner.timings).clear();
        let mut ring = lock_unpoisoned(&self.inner.trace);
        ring.events.clear();
        ring.next_seq = 0;
        ring.dropped = 0;
    }

    // ---- solver-health counters -------------------------------------------

    /// Records `n` ridge-escalation retries of a Cholesky factorization.
    pub fn record_cholesky_retries(&self, n: usize) {
        self.inner
            .counters
            .cholesky_retries
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` ridge-escalation retries of an LU factorization.
    pub fn record_lu_retries(&self, n: usize) {
        self.inner
            .counters
            .lu_retries
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records an SMO solution accepted under the relaxed tolerance.
    pub fn record_smo_relaxed(&self) {
        self.inner
            .counters
            .smo_relaxed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records an SMO solution that missed even the relaxed tolerance.
    pub fn record_smo_nonconverged(&self) {
        self.inner
            .counters
            .smo_nonconverged
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a projected-gradient QP accepted under the relaxed tolerance.
    pub fn record_qp_relaxed(&self) {
        self.inner
            .counters
            .qp_relaxed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a projected-gradient QP that missed even the relaxed
    /// tolerance.
    pub fn record_qp_nonconverged(&self) {
        self.inner
            .counters
            .qp_nonconverged
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` pilot densities floored during a KDE fit.
    pub fn record_kde_pilot_floors(&self, n: usize) {
        self.inner
            .counters
            .kde_pilot_floors
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current counter values.
    pub fn solver_health(&self) -> SolverHealth {
        let c = &self.inner.counters;
        SolverHealth {
            cholesky_retries: c.cholesky_retries.load(Ordering::Relaxed),
            lu_retries: c.lu_retries.load(Ordering::Relaxed),
            smo_relaxed: c.smo_relaxed.load(Ordering::Relaxed),
            smo_nonconverged: c.smo_nonconverged.load(Ordering::Relaxed),
            qp_relaxed: c.qp_relaxed.load(Ordering::Relaxed),
            qp_nonconverged: c.qp_nonconverged.load(Ordering::Relaxed),
            kde_pilot_floors: c.kde_pilot_floors.load(Ordering::Relaxed),
        }
    }

    // ---- stage timings ----------------------------------------------------

    /// Adds `ms` to the accumulated wall-clock for stage `name`. Stages
    /// that run more than once per experiment accumulate.
    pub fn record_timing(&self, name: &str, ms: f64) {
        *lock_unpoisoned(&self.inner.timings)
            .entry(name.to_owned())
            .or_insert(0.0) += ms;
    }

    /// Returns the recorded stage timings, sorted by stage name.
    pub fn timing_snapshot(&self) -> Vec<(String, f64)> {
        lock_unpoisoned(&self.inner.timings)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Starts a timed stage span: emits [`TraceEvent::StageStart`] now, and
    /// on drop records the elapsed milliseconds under `name` and emits
    /// [`TraceEvent::StageEnd`].
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        let name = name.into();
        self.trace(TraceEvent::StageStart {
            stage: name.clone(),
        });
        Span {
            ctx: self,
            name,
            start: Instant::now(),
        }
    }

    // ---- trace ring -------------------------------------------------------

    /// Appends an event to the trace ring.
    ///
    /// Determinism contract: the pipeline only emits trace events from
    /// sequential code (stage boundaries, solver fits invoked one after
    /// another, the quarantine loop), so for a given seed the sequence is
    /// identical at any thread count. Counter updates, which *do* happen
    /// inside parallel regions, never produce trace events.
    pub fn trace(&self, event: TraceEvent) {
        lock_unpoisoned(&self.inner.trace).push(event);
    }

    /// Convenience: records a [`TraceEvent::Rescue`] with the given fields.
    pub fn trace_rescue(&self, solver: &'static str, kind: &'static str, count: usize) {
        self.trace(TraceEvent::Rescue {
            solver,
            kind,
            count,
        });
    }

    /// Convenience: records a [`TraceEvent::LotDecision`] with the given
    /// fields.
    pub fn trace_lot_decision(
        &self,
        lot: usize,
        decision: &'static str,
        detail: impl Into<String>,
    ) {
        self.trace(TraceEvent::LotDecision {
            lot,
            decision,
            detail: detail.into(),
        });
    }

    /// Number of events currently held in the ring.
    pub fn trace_len(&self) -> usize {
        lock_unpoisoned(&self.inner.trace).events.len()
    }

    /// Number of events evicted because the ring was full.
    pub fn trace_dropped(&self) -> u64 {
        lock_unpoisoned(&self.inner.trace).dropped
    }

    /// Copies out the buffered trace records, oldest first.
    pub fn trace_events(&self) -> Vec<TraceRecord> {
        lock_unpoisoned(&self.inner.trace)
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the buffered trace as JSONL (one event object per line,
    /// trailing newline after the last line; empty string for an empty
    /// ring). See [`TraceRecord::to_json`] for the per-line schema.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for record in lock_unpoisoned(&self.inner.trace).events.iter() {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

/// RAII guard for a timed stage; see [`RunContext::span`].
pub struct Span<'a> {
    ctx: &'a RunContext,
    name: String,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.ctx
            .record_timing(&self.name, self.start.elapsed().as_secs_f64() * 1000.0);
        self.ctx.trace(TraceEvent::StageEnd {
            stage: std::mem::take(&mut self.name),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_solver_health() {
        let ctx = RunContext::new();
        assert!(ctx.solver_health().is_clean());
        ctx.record_cholesky_retries(2);
        ctx.record_lu_retries(1);
        ctx.record_smo_relaxed();
        ctx.record_smo_nonconverged();
        ctx.record_qp_relaxed();
        ctx.record_qp_nonconverged();
        ctx.record_kde_pilot_floors(3);
        let health = ctx.solver_health();
        assert_eq!(health.cholesky_retries, 2);
        assert_eq!(health.lu_retries, 1);
        assert_eq!(health.smo_relaxed, 1);
        assert_eq!(health.smo_nonconverged, 1);
        assert_eq!(health.qp_relaxed, 1);
        assert_eq!(health.qp_nonconverged, 1);
        assert_eq!(health.kde_pilot_floors, 3);
        assert_eq!(health.total(), 10);
        assert!(!health.is_clean());
    }

    #[test]
    fn contexts_are_isolated() {
        let a = RunContext::new();
        let b = RunContext::new();
        a.record_smo_relaxed();
        a.record_timing("mc", 1.0);
        a.trace_rescue("smo", "relaxed", 1);
        assert!(b.solver_health().is_clean());
        assert!(b.timing_snapshot().is_empty());
        assert_eq!(b.trace_len(), 0);
        // Clones observe the same run.
        let a2 = a.clone();
        a2.record_smo_relaxed();
        assert_eq!(a.solver_health().smo_relaxed, 2);
    }

    #[test]
    fn timing_accumulates_and_reset_clears() {
        let ctx = RunContext::new();
        ctx.record_timing("stage", 1.5);
        ctx.record_timing("stage", 2.5);
        let snap = ctx.timing_snapshot();
        assert_eq!(snap.len(), 1);
        assert!((snap[0].1 - 4.0).abs() < 1e-12);
        ctx.reset();
        assert!(ctx.timing_snapshot().is_empty());
        assert_eq!(ctx.trace_len(), 0);
        assert!(ctx.solver_health().is_clean());
    }

    #[test]
    fn span_records_timing_and_paired_trace_events() {
        let ctx = RunContext::new();
        {
            let _outer = ctx.span("outer");
            let _inner = ctx.span("inner");
        }
        let names: Vec<String> = ctx
            .timing_snapshot()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, ["inner", "outer"]);
        let events = ctx.trace_events();
        assert_eq!(
            events.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        // Inner drops first, so the ends nest inside-out.
        assert_eq!(
            events[0].event,
            TraceEvent::StageStart {
                stage: "outer".into()
            }
        );
        assert_eq!(
            events[1].event,
            TraceEvent::StageStart {
                stage: "inner".into()
            }
        );
        assert_eq!(
            events[2].event,
            TraceEvent::StageEnd {
                stage: "inner".into()
            }
        );
        assert_eq!(
            events[3].event,
            TraceEvent::StageEnd {
                stage: "outer".into()
            }
        );
    }

    #[test]
    fn trace_ring_drops_oldest_and_keeps_sequence() {
        let ctx = RunContext::with_trace_capacity(3);
        for i in 0..5 {
            ctx.trace_rescue("smo", "relaxed", i);
        }
        assert_eq!(ctx.trace_len(), 3);
        assert_eq!(ctx.trace_dropped(), 2);
        let seqs: Vec<u64> = ctx.trace_events().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn jsonl_schema_is_stable_and_escaped() {
        let ctx = RunContext::new();
        ctx.trace(TraceEvent::StageStart {
            stage: "kde.s2".into(),
        });
        ctx.trace_rescue("qp", "relaxed", 2);
        ctx.trace(TraceEvent::ModelFit {
            model: "mars",
            detail: "output=0 bases=7".into(),
        });
        ctx.trace(TraceEvent::Quarantine {
            device: 12,
            reason: "dead \"device\"\n".into(),
        });
        ctx.trace_lot_decision(3, "recalibrate", "ewma z=4.20 col=1");
        let jsonl = ctx.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"type\":\"stage_start\",\"stage\":\"kde.s2\"}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"type\":\"rescue\",\"solver\":\"qp\",\"kind\":\"relaxed\",\"count\":2}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"type\":\"model_fit\",\"model\":\"mars\",\"detail\":\"output=0 bases=7\"}"
        );
        assert_eq!(
            lines[3],
            "{\"seq\":3,\"type\":\"quarantine\",\"device\":12,\"reason\":\"dead \\\"device\\\"\\n\"}"
        );
        assert_eq!(
            lines[4],
            "{\"seq\":4,\"type\":\"lot_decision\",\"lot\":3,\"decision\":\"recalibrate\",\
             \"detail\":\"ewma z=4.20 col=1\"}"
        );
    }

    /// Regression test for the silent-state-loss bug: the old process-global
    /// `timing::record` used `if let Ok(..)` and silently no-opped once any
    /// thread panicked while holding the registry lock, so the next snapshot
    /// reported stale timings. The context must keep recording through a
    /// poisoned mutex.
    #[test]
    fn poisoned_registries_still_record() {
        let ctx = RunContext::new();
        ctx.record_timing("before", 1.0);

        // Poison both mutexes: panic on another thread while holding each
        // lock. The panic output is expected noise from this test.
        let ctx2 = ctx.clone();
        let _ = std::thread::spawn(move || {
            let _timings = ctx2.inner.timings.lock().unwrap();
            let _trace = ctx2.inner.trace.lock().unwrap();
            panic!("poison the observability registries");
        })
        .join();
        assert!(ctx.inner.timings.is_poisoned());
        assert!(ctx.inner.trace.is_poisoned());

        ctx.record_timing("after", 2.0);
        ctx.trace_rescue("smo", "relaxed", 1);
        let snap = ctx.timing_snapshot();
        assert_eq!(snap.len(), 2, "poisoned registry lost a record: {snap:?}");
        assert_eq!(snap[1].0, "before");
        assert_eq!(snap[0].0, "after");
        assert_eq!(ctx.trace_len(), 1);
        // reset() must also work through the poison.
        ctx.reset();
        assert!(ctx.timing_snapshot().is_empty());
        assert_eq!(ctx.trace_len(), 0);
    }

    #[test]
    fn debug_format_summarizes() {
        let ctx = RunContext::new();
        ctx.record_timing("mc", 1.0);
        let dbg = format!("{ctx:?}");
        assert!(dbg.contains("RunContext"));
        assert!(dbg.contains("timed_stages: 1"));
    }
}
