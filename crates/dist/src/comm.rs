//! The instrumented communication layer.
//!
//! All locales live in one address space, so "communication" is a real
//! memory copy plus a logged [`CommEvent`]. The distinction the paper
//! cares about — and that decides every distributed figure — is *how* the
//! copy happens:
//!
//! * [`Comm::fine`] — one message per element: Chapel's implicit remote
//!   access inside `forall` over distributed sparse arrays (Apply1,
//!   Assign1), the element-at-a-time vector gather of Listing 8, and the
//!   per-element atomic scatter into the global SPA.
//! * [`Comm::bulk`] — one message per block: what a bulk-synchronous,
//!   aggregated implementation would do (§IV "Bulk-synchronous
//!   communication of sparse arrays might improve the performance").
//!
//! Pricing happens later in [`crate::exec`]; this module only measures.
//! A deterministic fault hook ([`Comm::fail_after`]) lets tests inject a
//! communication failure at the N-th event and verify that operations
//! propagate it instead of silently corrupting results. When the owning
//! `DistCtx` is instrumented, every message feeds the shared
//! [`MetricsRegistry`], and injected faults / retry attempts appear as
//! instant events on the trace.

use gblas_core::error::{GblasError, Result};
use gblas_core::trace::{MetricsRegistry, TraceRecorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Message-granularity class of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommKind {
    /// One message per element, issued from a parallel loop — requests
    /// overlap (pipeline) up to the network model's concurrency.
    Fine,
    /// One message per element from a *dependent* chain (e.g. walking a
    /// remote domain's iterator, where each access needs the previous
    /// one's result): no pipelining, and sensitive to congestion when many
    /// locales walk remote structures at once. This is what makes
    /// Listing 8's gather blow up (Figs 8–9).
    FineDependent,
    /// Aggregated block transfer.
    Bulk,
}

impl CommKind {
    /// Stable lowercase name (used in trace attributes).
    pub fn as_str(self) -> &'static str {
        match self {
            CommKind::Fine => "fine",
            CommKind::FineDependent => "fine_dependent",
            CommKind::Bulk => "bulk",
        }
    }
}

/// One logged transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEvent {
    /// Phase name (matches the op's compute phases).
    pub phase: String,
    /// Initiating locale (charged with the transfer time).
    pub src: usize,
    /// Peer locale.
    pub dst: usize,
    /// Granularity class.
    pub kind: CommKind,
    /// Number of messages (elements for `Fine`, blocks for `Bulk`).
    pub msgs: u64,
    /// Payload bytes.
    pub bytes: u64,
}

/// Lifetime totals, kept under one lock so every log call pays a single
/// acquisition for all of its bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    fine_msgs: u64,
    bulk_msgs: u64,
    bytes: u64,
    calls: u64,
}

/// The communication layer: event log + fault injection.
///
/// Operations *drain* the event log when they price themselves
/// ([`Comm::take_events`]), so one `DistCtx` can run many operations
/// without double pricing; the cumulative totals survive draining for
/// inspection and tests.
#[derive(Debug, Default)]
pub struct Comm {
    events: Mutex<Vec<CommEvent>>,
    /// Cumulative totals across the context's lifetime — not reset by
    /// `take_events`.
    totals: Mutex<Totals>,
    /// Fault plan: fail the N-th subsequent transfer (0-based countdown).
    fail_in: Mutex<Option<u64>>,
    /// Opt-in cumulative copy of every logged event — unlike the main
    /// log, *not* drained by [`Comm::take_events`], so tests can audit a
    /// ledger that operations have already priced. `None` (off) unless
    /// [`Comm::record_history`] was called. Each event is stamped with
    /// the pricing epoch it was logged in (see [`Comm::history`]).
    history: Mutex<Option<Vec<(u64, CommEvent)>>>,
    /// Pricing epoch: how many times [`Comm::take_events`] has drained
    /// the log. Only the driver thread drains, between supersteps, and the
    /// superstep fork/join orders that bump before any locale task's
    /// read; the counter publishes no other data, hence `Relaxed`.
    epoch: AtomicU64,
    /// Shared cumulative metrics (always cheap; a fresh registry when the
    /// owning context is not instrumented).
    metrics: Arc<MetricsRegistry>,
    /// Trace handle for fault/retry instant events (disabled by default).
    tracer: TraceRecorder,
}

impl Comm {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a trace recorder and metrics registry (normally done by
    /// `DistCtx`, so comm totals land in the same registry as op metrics).
    pub fn instrument(&mut self, tracer: TraceRecorder, metrics: Arc<MetricsRegistry>) {
        self.tracer = tracer;
        self.metrics = metrics;
    }

    /// The metrics registry this layer feeds.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Arm the fault hook: the `n`-th transfer from now returns
    /// [`GblasError::CommFailure`] (n = 0 fails the next transfer).
    pub fn fail_after(&self, n: u64) {
        *self.fail_in.lock() = Some(n);
    }

    /// Disarm the fault hook.
    pub fn clear_faults(&self) {
        *self.fail_in.lock() = None;
    }

    fn check_fault(&self, phase: &str, src: usize, kind: CommKind) -> Result<()> {
        let mut guard = self.fail_in.lock();
        if let Some(n) = guard.as_mut() {
            if *n == 0 {
                *guard = None;
                drop(guard);
                self.metrics.faults_injected(1);
                self.tracer.instant(
                    "comm_fault",
                    Some(src),
                    vec![
                        ("phase".to_string(), phase.to_string()),
                        ("kind".to_string(), kind.as_str().to_string()),
                    ],
                );
                return Err(GblasError::CommFailure(format!(
                    "injected fault during phase '{phase}'"
                )));
            }
            *n -= 1;
        }
        Ok(())
    }

    /// The one logging path all three public kinds share: fault check,
    /// totals + metrics bookkeeping, event append.
    fn log(
        &self,
        kind: CommKind,
        phase: &str,
        src: usize,
        dst: usize,
        msgs: u64,
        bytes: u64,
    ) -> Result<()> {
        if msgs == 0 {
            return Ok(());
        }
        self.check_fault(phase, src, kind)?;
        {
            let mut t = self.totals.lock();
            match kind {
                CommKind::Bulk => t.bulk_msgs += msgs,
                CommKind::Fine | CommKind::FineDependent => t.fine_msgs += msgs,
            }
            t.bytes += bytes;
            t.calls += 1;
        }
        match kind {
            CommKind::Bulk => self.metrics.bulk_msgs(msgs),
            CommKind::Fine | CommKind::FineDependent => self.metrics.fine_msgs(msgs),
        }
        self.metrics.bytes_sent(bytes);
        let event = CommEvent { phase: phase.to_string(), src, dst, kind, msgs, bytes };
        if let Some(h) = self.history.lock().as_mut() {
            h.push((self.epoch.load(Ordering::Relaxed), event.clone()));
        }
        self.events.lock().push(event);
        Ok(())
    }

    /// Log `msgs` fine-grained single-element transfers of `bytes` total
    /// from `src` touching `dst`.
    pub fn fine(&self, phase: &str, src: usize, dst: usize, msgs: u64, bytes: u64) -> Result<()> {
        self.log(CommKind::Fine, phase, src, dst, msgs, bytes)
    }

    /// Log `msgs` *dependent* fine-grained transfers (each access waits
    /// for the previous — a remote iterator walk).
    pub fn fine_dependent(
        &self,
        phase: &str,
        src: usize,
        dst: usize,
        msgs: u64,
        bytes: u64,
    ) -> Result<()> {
        self.log(CommKind::FineDependent, phase, src, dst, msgs, bytes)
    }

    /// Log one (or `msgs`) bulk transfers of `bytes` total from `src` to
    /// `dst`.
    pub fn bulk(&self, phase: &str, src: usize, dst: usize, msgs: u64, bytes: u64) -> Result<()> {
        self.log(CommKind::Bulk, phase, src, dst, msgs, bytes)
    }

    /// Like [`with_retry`], but instrumented: each retry attempt becomes a
    /// `comm_retry` instant on the trace and bumps the `retries` metric.
    pub fn with_retry<R>(&self, attempts: usize, mut f: impl FnMut() -> Result<R>) -> Result<R> {
        let attempts = attempts.max(1);
        let mut last = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.metrics.retries(1);
                self.tracer.instant(
                    "comm_retry",
                    None,
                    vec![
                        ("attempt".to_string(), attempt.to_string()),
                        ("max_attempts".to_string(), attempts.to_string()),
                    ],
                );
            }
            match f() {
                Ok(r) => return Ok(r),
                Err(GblasError::CommFailure(msg)) => last = Some(GblasError::CommFailure(msg)),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Start keeping a cumulative event history that survives
    /// [`Comm::take_events`] (i.e. survives operations pricing
    /// themselves). Test/audit hook; off by default because it doubles the
    /// logging cost.
    pub fn record_history(&self) {
        let mut h = self.history.lock();
        if h.is_none() {
            *h = Some(Vec::new());
        }
    }

    /// Snapshot the cumulative history (empty unless
    /// [`Comm::record_history`] was called before the traffic) in its
    /// canonical order: by pricing epoch — one epoch per
    /// [`Comm::take_events`] drain, i.e. per priced operation — then by
    /// source locale. Under the threaded executor concurrent locale tasks
    /// append in whatever order they reach the lock, so only each source's
    /// own subsequence is fixed; the stable sort keeps every such
    /// subsequence and drops the cross-source interleaving, giving every
    /// consumer one deterministic ledger.
    pub fn history(&self) -> Vec<CommEvent> {
        let mut stamped = self.history.lock().clone().unwrap_or_default();
        stamped.sort_by_key(|(epoch, event)| (*epoch, event.src));
        stamped.into_iter().map(|(_, event)| event).collect()
    }

    /// Snapshot the event log.
    pub fn events(&self) -> Vec<CommEvent> {
        self.events.lock().clone()
    }

    /// Drain the event log, closing the current pricing epoch.
    pub fn take_events(&self) -> Vec<CommEvent> {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        std::mem::take(&mut self.events.lock())
    }

    /// Cumulative `(fine messages, bulk messages, bytes)` over the
    /// context's lifetime. Survives [`Comm::take_events`].
    pub fn totals(&self) -> (u64, u64, u64) {
        let t = self.totals.lock();
        (t.fine_msgs, t.bulk_msgs, t.bytes)
    }

    /// Cumulative number of transfer calls (each a potential fault point).
    /// Survives [`Comm::take_events`].
    pub fn call_count(&self) -> u64 {
        self.totals.lock().calls
    }
}

/// Retry a communication-bearing closure up to `attempts` times on
/// [`GblasError::CommFailure`], propagating other errors immediately.
/// Deterministic: no backoff randomness. Discards the attempt count —
/// use [`with_retry_counted`] to observe it, or [`Comm::with_retry`] to
/// additionally record retries on the trace.
pub fn with_retry<R>(attempts: usize, f: impl FnMut() -> Result<R>) -> Result<R> {
    with_retry_counted(attempts, f).map(|(r, _)| r)
}

/// Like [`with_retry`], but on success also reports how many attempts the
/// closure consumed (1 = first try succeeded).
///
/// ```
/// use gblas_dist::comm::{with_retry_counted, Comm};
///
/// let comm = Comm::new();
/// comm.fail_after(0); // next transfer fails
/// let ((), attempts) =
///     with_retry_counted(3, || comm.bulk("p", 0, 1, 1, 64)).unwrap();
/// assert_eq!(attempts, 2); // first try hit the injected fault
/// ```
pub fn with_retry_counted<R>(
    attempts: usize,
    mut f: impl FnMut() -> Result<R>,
) -> Result<(R, usize)> {
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 1..=attempts {
        match f() {
            Ok(r) => return Ok((r, attempt)),
            Err(GblasError::CommFailure(msg)) => last = Some(GblasError::CommFailure(msg)),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_and_totals() {
        let c = Comm::new();
        c.fine("gather", 0, 1, 100, 800).unwrap();
        c.bulk("gather", 1, 0, 1, 4096).unwrap();
        c.fine("scatter", 2, 0, 50, 400).unwrap();
        let (fine, bulk, bytes) = c.totals();
        assert_eq!((fine, bulk, bytes), (150, 1, 5296));
        assert_eq!(c.events().len(), 3);
        assert_eq!(c.call_count(), 3);
    }

    #[test]
    fn history_survives_take_events() {
        let c = Comm::new();
        c.fine("a", 0, 1, 2, 16).unwrap();
        assert!(c.history().is_empty(), "history is opt-in");
        c.record_history();
        c.bulk("b", 1, 0, 1, 64).unwrap();
        let _ = c.take_events();
        c.fine("c", 0, 1, 1, 8).unwrap();
        let h = c.history();
        assert_eq!(h.len(), 2, "history keeps draining-surviving copies");
        assert_eq!(h[0].phase, "b");
        assert_eq!(h[1].phase, "c");
        assert!(c.events().len() == 1, "main log was drained then refilled");
    }

    #[test]
    fn history_is_ordered_by_epoch_then_source_keeping_per_source_order() {
        let c = Comm::new();
        c.record_history();
        // One epoch, sources interleaved as racing locale tasks would.
        c.bulk("g", 2, 0, 1, 8).unwrap();
        c.bulk("g", 0, 1, 1, 16).unwrap();
        c.bulk("s", 2, 1, 1, 24).unwrap();
        c.bulk("s", 0, 2, 1, 32).unwrap();
        let _ = c.take_events();
        c.bulk("g", 1, 0, 1, 40).unwrap();
        let bytes: Vec<u64> = c.history().iter().map(|e| e.bytes).collect();
        assert_eq!(bytes, vec![16, 32, 8, 24, 40]);
    }

    #[test]
    fn zero_message_events_are_elided() {
        let c = Comm::new();
        c.fine("x", 0, 1, 0, 0).unwrap();
        assert!(c.events().is_empty());
    }

    #[test]
    fn fault_fires_once_at_the_right_event() {
        let c = Comm::new();
        c.fail_after(2);
        assert!(c.fine("p", 0, 1, 1, 8).is_ok());
        assert!(c.fine("p", 0, 1, 1, 8).is_ok());
        let err = c.fine("p", 0, 1, 1, 8).unwrap_err();
        assert!(matches!(err, GblasError::CommFailure(_)));
        // disarmed after firing
        assert!(c.fine("p", 0, 1, 1, 8).is_ok());
        // only successful events logged
        assert_eq!(c.events().len(), 3);
    }

    #[test]
    fn all_kinds_share_the_fault_countdown_and_totals() {
        let c = Comm::new();
        c.fail_after(1);
        assert!(c.fine_dependent("p", 0, 1, 10, 80).is_ok());
        assert!(c.bulk("p", 0, 1, 1, 64).is_err());
        let (fine, bulk, bytes) = c.totals();
        assert_eq!((fine, bulk, bytes), (10, 0, 80));
    }

    #[test]
    fn metrics_registry_sees_messages_and_faults() {
        let mut c = Comm::new();
        let metrics = Arc::new(MetricsRegistry::default());
        c.instrument(TraceRecorder::disabled(), Arc::clone(&metrics));
        c.fine("p", 0, 1, 5, 40).unwrap();
        c.bulk("p", 0, 1, 2, 128).unwrap();
        c.fail_after(0);
        let _ = c.fine("p", 0, 1, 1, 8);
        let s = metrics.snapshot();
        assert_eq!(s.fine_msgs, 5);
        assert_eq!(s.bulk_msgs, 2);
        assert_eq!(s.bytes_sent, 168);
        assert_eq!(s.faults_injected, 1);
    }

    #[test]
    fn instrumented_retry_traces_fault_and_retry_instants() {
        let mut c = Comm::new();
        let tracer = TraceRecorder::new();
        let metrics = Arc::new(MetricsRegistry::default());
        c.instrument(tracer.clone(), Arc::clone(&metrics));
        c.fail_after(0);
        c.with_retry(3, || c.bulk("p", 0, 1, 1, 64)).unwrap();
        let trace = tracer.snapshot();
        let names: Vec<&str> = trace.instants.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["comm_fault", "comm_retry"]);
        assert_eq!(
            trace.instants[1].attrs,
            vec![
                ("attempt".to_string(), "2".to_string()),
                ("max_attempts".to_string(), "3".to_string())
            ]
        );
        assert_eq!(metrics.snapshot().retries, 1);
        assert_eq!(metrics.snapshot().faults_injected, 1);
    }

    #[test]
    fn retry_recovers_from_injected_fault() {
        let c = Comm::new();
        c.fail_after(0);
        let r = with_retry(3, || c.bulk("p", 0, 1, 1, 64));
        assert!(r.is_ok());
        assert_eq!(c.events().len(), 1);
    }

    #[test]
    fn retry_counted_reports_attempts_used() {
        let c = Comm::new();
        let ((), n) = with_retry_counted(3, || c.bulk("p", 0, 1, 1, 8)).unwrap();
        assert_eq!(n, 1);
        c.fail_after(1);
        let ((), n) = with_retry_counted(3, || c.bulk("p", 0, 1, 1, 8)).unwrap();
        assert_eq!(n, 1, "countdown not yet reached: first try succeeds");
        let ((), n) = with_retry_counted(3, || c.bulk("p", 0, 1, 1, 8)).unwrap();
        assert_eq!(n, 2, "armed fault consumes one attempt");
    }

    #[test]
    fn retry_gives_up_eventually() {
        let mut count = 0;
        let r: Result<()> = with_retry(3, || {
            count += 1;
            Err(GblasError::CommFailure("always".into()))
        });
        assert!(r.is_err());
        assert_eq!(count, 3);
    }

    #[test]
    fn retry_propagates_non_comm_errors_immediately() {
        let mut count = 0;
        let r: Result<()> = with_retry(5, || {
            count += 1;
            Err(GblasError::InvalidArgument("fatal".into()))
        });
        assert!(matches!(r, Err(GblasError::InvalidArgument(_))));
        assert_eq!(count, 1);
    }
}
