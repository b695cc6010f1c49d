//! End-to-end tracing & metrics — the observability layer.
//!
//! The paper's whole argument is observational: every figure decomposes an
//! operation into *phases* (SpMSpV into SPA/Sort/Output in Fig 7,
//! Gather/Local-Multiply/Scatter in Figs 8–9) and attributes cost to a
//! mechanism. The rest of the library *measures* (phase [`Counters`],
//! the comm event log, cost-model pricing); this module lets a run be
//! *observed*: a [`TraceRecorder`] captures nested spans — operation →
//! phase → per-locale segment — on the **simulated clock**, and
//! [`sink`] renders them as a Chrome-trace timeline (one process per
//! locale), a JSONL event stream, or a human-readable summary table.
//!
//! Design points:
//!
//! * **Disabled is free.** A disabled recorder is a `None` handle; every
//!   record call is a single branch, no allocation, no locking. Tracing
//!   is strictly opt-in ([`TraceRecorder::new`]).
//! * **Two clocks, segregated.** Span positions and durations are
//!   *simulated seconds* (deterministic, priced by `gblas-sim`); real
//!   wall-clock nanoseconds ride along in a separate field that the
//!   deterministic exporters omit, so two identical runs produce
//!   byte-identical simulated-time output.
//! * **Cross-run metrics.** A [`MetricsRegistry`] of atomic counters
//!   (ops executed, nnz processed, fine/bulk messages, bytes, faults
//!   injected, retries, spans recorded) accumulates across operations and
//!   contexts and is queryable at runtime.

pub mod profile;
pub mod sink;

use crate::par::Counters;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a span represents; fixed vocabulary so sinks can lay out tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole operation (`spmspv_dist`, `apply_v2`, …).
    Op,
    /// One phase of an operation, rolled up across locales
    /// (bulk-synchronous: its duration is the max over locales, plus any
    /// spawn overhead and communication).
    Phase,
    /// One locale's compute segment within a phase.
    LocaleCompute,
    /// One locale's communication segment within a phase.
    LocaleComm,
}

impl SpanKind {
    /// Stable lowercase name used by every sink.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Phase => "phase",
            SpanKind::LocaleCompute => "compute",
            SpanKind::LocaleComm => "comm",
        }
    }
}

/// Communication attributed to a [`SpanKind::LocaleComm`] segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSummary {
    /// Fine-grained (per-element) messages, pipelined.
    pub fine_msgs: u64,
    /// Fine-grained messages from dependent chains (no pipelining).
    pub fine_dependent_msgs: u64,
    /// Aggregated block messages.
    pub bulk_msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Distinct peer locales touched.
    pub peers: u64,
}

impl CommSummary {
    /// True when nothing was transferred.
    pub fn is_empty(&self) -> bool {
        *self == CommSummary::default()
    }
}

/// One recorded span on the simulated timeline.
#[derive(Debug, Clone)]
pub struct Span {
    /// Recorder-unique id (stable within one recorder's lifetime).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name: the op or phase name (`gather`, `local`, …).
    pub name: String,
    /// Structural role.
    pub kind: SpanKind,
    /// Owning locale for per-locale segments; `None` for op/phase spans.
    pub locale: Option<usize>,
    /// Start on the simulated clock, seconds.
    pub sim_start: f64,
    /// Duration on the simulated clock, seconds.
    pub sim_dur: f64,
    /// Real elapsed nanoseconds — **segregated**: deterministic sinks
    /// must not emit this field.
    pub wall_ns: u64,
    /// Work counters attributed to this span (empty when not applicable).
    pub counters: Counters,
    /// Free-form attributes (dims, nnz, strategy, …), insertion-ordered.
    pub attrs: Vec<(String, String)>,
    /// Communication attributed to this span, if any.
    pub comm: Option<CommSummary>,
}

/// A point-in-time event (retry, injected fault) on the simulated clock.
#[derive(Debug, Clone)]
pub struct Instant {
    /// Event name (`comm_fault`, `comm_retry`, …).
    pub name: String,
    /// Simulated timestamp, seconds.
    pub sim_ts: f64,
    /// Locale it happened on, when known.
    pub locale: Option<usize>,
    /// Free-form attributes.
    pub attrs: Vec<(String, String)>,
}

/// An immutable snapshot of everything a recorder captured.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in recording order (parents before children).
    pub spans: Vec<Span>,
    /// Instant events in recording order.
    pub instants: Vec<Instant>,
}

impl Trace {
    /// Locales that appear in any per-locale span, ascending.
    pub fn locales(&self) -> Vec<usize> {
        let mut ls: Vec<usize> = self.spans.iter().filter_map(|s| s.locale).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// End of the simulated timeline (max span end / instant ts).
    ///
    /// Total on empty traces and traces holding only instants: `0.0` when
    /// nothing carries a finite timestamp (never a panic, never NaN —
    /// non-finite endpoints from corrupt input are ignored).
    pub fn sim_end(&self) -> f64 {
        let span_end = self
            .spans
            .iter()
            .map(|s| s.sim_start + s.sim_dur)
            .filter(|t| t.is_finite())
            .fold(0.0f64, f64::max);
        self.instants.iter().map(|i| i.sim_ts).filter(|t| t.is_finite()).fold(span_end, f64::max)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    instants: Vec<Instant>,
    /// The simulated-clock write head: ops append phases end-to-end.
    cursor: f64,
    next_id: u64,
}

/// Handle to a trace being recorded.
///
/// Cloning shares the underlying trace; a disabled recorder (the default)
/// is a null handle whose every method is a cheap no-op — operations can
/// call it unconditionally on their hot path.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder(Option<Arc<Mutex<Inner>>>);

impl TraceRecorder {
    /// An enabled recorder with an empty trace.
    pub fn new() -> Self {
        TraceRecorder(Some(Arc::new(Mutex::new(Inner::default()))))
    }

    /// The no-op handle (what contexts carry by default).
    pub fn disabled() -> Self {
        TraceRecorder(None)
    }

    /// Whether spans are actually being captured.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Current simulated-clock position (0 when disabled).
    pub fn cursor(&self) -> f64 {
        self.0.as_ref().map(|i| i.lock().cursor).unwrap_or(0.0)
    }

    /// Move the simulated clock forward by `seconds`; returns the span
    /// interval `(start, end)` it covered.
    pub fn advance(&self, seconds: f64) -> (f64, f64) {
        match &self.0 {
            Some(i) => {
                let mut g = i.lock();
                let start = g.cursor;
                g.cursor += seconds;
                (start, g.cursor)
            }
            None => (0.0, 0.0),
        }
    }

    /// Record a fully-formed span; returns its id (0 when disabled).
    #[allow(clippy::too_many_arguments)] // span construction is the one fat call
    pub fn span(
        &self,
        parent: Option<u64>,
        name: &str,
        kind: SpanKind,
        locale: Option<usize>,
        sim_start: f64,
        sim_dur: f64,
        wall_ns: u64,
        counters: Counters,
        attrs: Vec<(String, String)>,
        comm: Option<CommSummary>,
    ) -> u64 {
        match &self.0 {
            Some(i) => {
                let mut g = i.lock();
                g.next_id += 1;
                let id = g.next_id;
                g.spans.push(Span {
                    id,
                    parent,
                    name: name.to_string(),
                    kind,
                    locale,
                    sim_start,
                    sim_dur,
                    wall_ns,
                    counters,
                    attrs,
                    comm,
                });
                id
            }
            None => 0,
        }
    }

    /// Record an instant event at the current cursor.
    pub fn instant(&self, name: &str, locale: Option<usize>, attrs: Vec<(String, String)>) {
        if let Some(i) = &self.0 {
            let mut g = i.lock();
            let sim_ts = g.cursor;
            g.instants.push(Instant { name: name.to_string(), sim_ts, locale, attrs });
        }
    }

    /// Snapshot the trace recorded so far.
    pub fn snapshot(&self) -> Trace {
        match &self.0 {
            Some(i) => {
                let g = i.lock();
                Trace { spans: g.spans.clone(), instants: g.instants.clone() }
            }
            None => Trace::default(),
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.0.as_ref().map(|i| i.lock().spans.len()).unwrap_or(0)
    }
}

macro_rules! metrics_registry {
    ($( $(#[$doc:meta])* $field:ident ),* $(,)?) => {
        /// Cross-run cumulative metrics, cheap enough to leave always on.
        ///
        /// Shared by `ExecCtx`/`DistCtx`/`Comm` via `Arc`; every field is a
        /// relaxed atomic counter. Snapshot with [`MetricsRegistry::snapshot`].
        #[derive(Debug, Default)]
        pub struct MetricsRegistry {
            $( $(#[$doc])* $field: AtomicU64, )*
        }

        /// Plain-struct view of a [`MetricsRegistry`] at one moment.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl MetricsRegistry {
            $(
                /// Add to the counter of the same name.
                pub fn $field(&self, n: u64) {
                    self.$field.fetch_add(n, Ordering::Relaxed);
                }
            )*

            /// Read every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                }
            }
        }

        impl std::fmt::Display for MetricsSnapshot {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $( writeln!(f, "{:<18} {}", stringify!($field), self.$field)?; )*
                Ok(())
            }
        }
    };
}

metrics_registry! {
    /// Operations executed (op-level spans or traced kernels).
    ops_executed,
    /// Nonzeros processed by those operations.
    nnz_processed,
    /// Fine-grained messages logged (incl. dependent chains).
    fine_msgs,
    /// Bulk messages logged.
    bulk_msgs,
    /// Payload bytes across all messages.
    bytes_sent,
    /// Communication faults injected by the fault hook.
    faults_injected,
    /// Retry attempts consumed recovering from comm failures.
    retries,
    /// Spans recorded across all recorders sharing this registry.
    spans_recorded,
    /// Fresh heap allocations made for kernel workspaces (pool misses
    /// plus in-place growth of pooled buffers).
    allocs,
    /// Estimated bytes of those workspace allocations.
    alloc_bytes,
    /// Workspace checkouts served from the pool without allocating.
    pool_hits,
    /// Workspace checkouts that had to allocate (cold pool, capacity
    /// miss, or pooling disabled).
    pool_misses,
    /// Communication schedules compiled by an inspector pass (cache
    /// misses and rebuilds after invalidation).
    sched_builds,
    /// Communication schedules replayed from the cache, skipping the
    /// inspector.
    sched_replays,
    /// Cached schedules discarded because the matrix generation or the
    /// access-pattern fingerprint changed.
    sched_invalidations,
}

/// Span-attribute key for the per-destination message count of a comm
/// span (`dst{d}_msgs`). The single source of truth for the naming
/// scheme, shared by the emission side ([`gblas-dist`]'s OpTrace) and the
/// profile reconstructor, so the schema cannot drift.
pub fn dst_msgs_key(dst: usize) -> String {
    format!("dst{dst}_msgs")
}

/// Span-attribute key for the per-destination payload bytes of a comm
/// span (`dst{d}_bytes`). See [`dst_msgs_key`].
pub fn dst_bytes_key(dst: usize) -> String {
    format!("dst{dst}_bytes")
}

/// Which per-destination quantity a comm-span attribute carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DstQuantity {
    /// A `dst{d}_msgs` attribute.
    Msgs,
    /// A `dst{d}_bytes` attribute.
    Bytes,
}

/// Parse a per-destination comm-span attribute key produced by
/// [`dst_msgs_key`]/[`dst_bytes_key`] back into `(destination, quantity)`.
/// Returns `None` for every other attribute.
pub fn parse_dst_key(key: &str) -> Option<(usize, DstQuantity)> {
    let rest = key.strip_prefix("dst")?;
    if let Some(d) = rest.strip_suffix("_msgs") {
        return Some((d.parse().ok()?, DstQuantity::Msgs));
    }
    if let Some(d) = rest.strip_suffix("_bytes") {
        return Some((d.parse().ok()?, DstQuantity::Bytes));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_keys_round_trip() {
        for d in [0usize, 3, 17, 4096] {
            assert_eq!(parse_dst_key(&dst_msgs_key(d)), Some((d, DstQuantity::Msgs)));
            assert_eq!(parse_dst_key(&dst_bytes_key(d)), Some((d, DstQuantity::Bytes)));
        }
        for k in ["dst_msgs", "dstX_bytes", "dst3_elems", "src3_msgs", "dst3"] {
            assert_eq!(parse_dst_key(k), None, "{k} must not parse");
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = TraceRecorder::disabled();
        assert!(!r.is_enabled());
        assert_eq!(r.advance(5.0), (0.0, 0.0));
        let id =
            r.span(None, "x", SpanKind::Op, None, 0.0, 1.0, 0, Counters::default(), vec![], None);
        assert_eq!(id, 0);
        r.instant("e", None, vec![]);
        assert!(r.snapshot().spans.is_empty());
        assert!(r.snapshot().instants.is_empty());
    }

    #[test]
    fn cursor_advances_monotonically() {
        let r = TraceRecorder::new();
        assert_eq!(r.advance(1.5), (0.0, 1.5));
        assert_eq!(r.advance(0.5), (1.5, 2.0));
        assert_eq!(r.cursor(), 2.0);
    }

    #[test]
    fn spans_get_unique_increasing_ids() {
        let r = TraceRecorder::new();
        let a =
            r.span(None, "a", SpanKind::Op, None, 0.0, 1.0, 0, Counters::default(), vec![], None);
        let b = r.span(
            Some(a),
            "b",
            SpanKind::Phase,
            None,
            0.0,
            0.5,
            0,
            Counters::default(),
            vec![],
            None,
        );
        assert!(b > a);
        let t = r.snapshot();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(a));
    }

    #[test]
    fn instants_stamp_the_cursor() {
        let r = TraceRecorder::new();
        r.advance(2.0);
        r.instant("fault", Some(3), vec![("phase".into(), "gather".into())]);
        let t = r.snapshot();
        assert_eq!(t.instants.len(), 1);
        assert_eq!(t.instants[0].sim_ts, 2.0);
        assert_eq!(t.instants[0].locale, Some(3));
    }

    #[test]
    fn trace_reports_locales_and_end() {
        let r = TraceRecorder::new();
        r.span(None, "p", SpanKind::Phase, None, 0.0, 4.0, 0, Counters::default(), vec![], None);
        r.span(
            None,
            "p",
            SpanKind::LocaleCompute,
            Some(2),
            0.0,
            1.0,
            0,
            Counters::default(),
            vec![],
            None,
        );
        r.span(
            None,
            "p",
            SpanKind::LocaleCompute,
            Some(0),
            0.0,
            3.0,
            0,
            Counters::default(),
            vec![],
            None,
        );
        let t = r.snapshot();
        assert_eq!(t.locales(), vec![0, 2]);
        assert_eq!(t.sim_end(), 4.0);
    }

    #[test]
    fn sim_end_is_zero_on_empty_and_instant_only_traces() {
        let empty = Trace::default();
        assert_eq!(empty.sim_end(), 0.0);
        assert!(empty.locales().is_empty());

        // Instants only (no spans): the latest finite timestamp wins; a
        // fresh recorder's instants sit at cursor 0.
        let r = TraceRecorder::new();
        r.instant("boot", None, vec![]);
        assert_eq!(r.snapshot().sim_end(), 0.0);
        r.advance(1.5);
        r.instant("later", Some(1), vec![]);
        assert_eq!(r.snapshot().sim_end(), 1.5);
    }

    #[test]
    fn sim_end_ignores_non_finite_endpoints() {
        let mut t = Trace::default();
        t.spans.push(Span {
            id: 1,
            parent: None,
            name: "bad".into(),
            kind: SpanKind::Op,
            locale: None,
            sim_start: f64::NAN,
            sim_dur: 1.0,
            wall_ns: 0,
            counters: Counters::default(),
            attrs: vec![],
            comm: None,
        });
        t.instants.push(Instant {
            name: "inf".into(),
            sim_ts: f64::INFINITY,
            locale: None,
            attrs: vec![],
        });
        assert_eq!(t.sim_end(), 0.0, "corrupt endpoints must not poison the makespan");
        t.instants.push(Instant { name: "ok".into(), sim_ts: 2.0, locale: None, attrs: vec![] });
        assert_eq!(t.sim_end(), 2.0);
    }

    #[test]
    fn metrics_accumulate_and_snapshot() {
        let m = MetricsRegistry::default();
        m.ops_executed(1);
        m.ops_executed(2);
        m.fine_msgs(100);
        m.retries(3);
        let s = m.snapshot();
        assert_eq!(s.ops_executed, 3);
        assert_eq!(s.fine_msgs, 100);
        assert_eq!(s.retries, 3);
        assert_eq!(s.bulk_msgs, 0);
        let text = s.to_string();
        assert!(text.contains("ops_executed"));
        assert!(text.contains("retries"));
    }
}
