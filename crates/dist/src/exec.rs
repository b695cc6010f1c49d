//! Distributed execution context, pricing, and op-level tracing.

use crate::comm::{Comm, CommEvent, CommKind};
use crate::config::RunConfig;
use crate::sched::{FrontierClass, PlanData, SchedKey, SchedOutcome, ScheduleCache};
use gblas_core::error::Result;
use gblas_core::par::{fork_join, Counters, ExecCtx, Profile};
use gblas_core::trace::{
    dst_bytes_key, dst_msgs_key, CommSummary, MetricsRegistry, SpanKind, TraceRecorder,
};
use gblas_core::workspace::{WorkspacePool, WorkspaceStats};
use gblas_sim::{MachineConfig, SimReport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How [`DistCtx::for_each_locale`] runs the per-locale bodies of a
/// superstep on the *real* machine (the simulated clock is unaffected —
/// pricing only reads the profiles and the comm log, never wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocaleExecutor {
    /// SPMD: scoped worker threads execute one task per locale
    /// concurrently — the wall-clock realization of Chapel's
    /// `coforall loc in Locales do on loc`.
    #[default]
    Threaded,
    /// Locale bodies run back-to-back on the driver thread (the historic
    /// behaviour). Kept as a differential-testing oracle and for
    /// single-core environments; the binaries select it under
    /// `GBLAS_DIST_EXECUTOR=serial` ([`RunConfig::from_env`]).
    Serial,
}

/// One message list per destination locale: the send side of an
/// outbox/inbox superstep. A sender fills `outbox[dst]` for each owner
/// `dst`; after the superstep barrier, owner `o` drains `outboxes[src][o]`
/// in source-locale order, so cross-locale writes resolve exactly as a
/// serial sweep would.
pub type Outbox<M> = Vec<Vec<M>>;

/// Execution context for distributed operations.
///
/// Holds the simulated [`MachineConfig`] and the communication log for the
/// current operation. Distributed ops execute SPMD-style through
/// [`DistCtx::for_each_locale`]: one task per locale per superstep, each
/// touching only its own disjoint state, with an implicit barrier between
/// supersteps (the bulk-synchronous structure the paper's version-2 codes
/// follow). Each locale body runs on a fresh [`ExecCtx`] with the
/// machine's `threads_per_locale` *logical* threads; whether the bodies
/// also run concurrently on the real machine is the [`LocaleExecutor`]'s
/// choice and never changes results, comm logs, or simulated times.
///
/// The context also carries the observability handles: a [`TraceRecorder`]
/// (disabled by default — [`DistCtx::enable_tracing`] turns it on) and a
/// shared [`MetricsRegistry`] that accumulates cumulative totals across
/// every operation run under this context.
#[derive(Debug)]
pub struct DistCtx {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Communication log + fault hooks for the current operation.
    pub comm: Comm,
    executor: LocaleExecutor,
    recorder: TraceRecorder,
    metrics: Arc<MetricsRegistry>,
    /// One long-lived workspace pool per locale: every superstep body that
    /// runs "on" locale `l` (via [`DistCtx::locale_ctx_for`]) checks its
    /// scratch out of pool `l`, so outbox/inbox staging and SPA slots are
    /// reused across supersteps and across algorithm iterations.
    pools: Vec<Arc<WorkspacePool>>,
    /// Watermark of per-locale pool stats already mirrored into the
    /// shared [`MetricsRegistry`] — see [`DistCtx::sync_workspace_metrics`].
    ws_synced: Mutex<WorkspaceStats>,
    /// Compiled communication schedules, keyed by (op, grid, frontier
    /// class) and replayed across the iterations of a driver that keeps
    /// one context alive — see [`crate::sched`].
    sched: ScheduleCache,
    /// Whether [`DistCtx::schedule`] caches at all (off builds fresh every
    /// call — the ablation/differential toggle).
    sched_enabled: AtomicBool,
}

impl DistCtx {
    /// A context for the given machine (tracing disabled) under
    /// [`RunConfig::default`]: threaded executor, schedules on, pooled
    /// workspaces — whatever the process environment says.
    pub fn new(machine: MachineConfig) -> Self {
        Self::with_instrumentation(
            machine,
            TraceRecorder::disabled(),
            Arc::new(MetricsRegistry::default()),
        )
    }

    /// A context wired to an existing recorder and metrics registry.
    pub fn with_instrumentation(
        machine: MachineConfig,
        recorder: TraceRecorder,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let mut comm = Comm::new();
        comm.instrument(recorder.clone(), Arc::clone(&metrics));
        let cfg = RunConfig::default();
        let pools = (0..machine.locales()).map(|_| Arc::new(WorkspacePool::default())).collect();
        DistCtx {
            machine,
            comm,
            executor: cfg.executor,
            recorder,
            metrics,
            pools,
            ws_synced: Mutex::new(WorkspaceStats::default()),
            sched: ScheduleCache::default(),
            sched_enabled: AtomicBool::new(cfg.schedules),
        }
    }

    /// This context under `cfg`: the three setters in one call, for a
    /// driver that resolved its configuration once (the binaries do, with
    /// [`RunConfig::from_env`]).
    pub fn with_config(mut self, cfg: RunConfig) -> Self {
        self.set_executor(cfg.executor);
        self.set_schedules(cfg.schedules);
        self.set_workspace_enabled(cfg.workspace);
        self
    }

    /// Whether communication schedules are cached and replayed.
    pub fn schedules_enabled(&self) -> bool {
        self.sched_enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable schedule caching. Disabling leaves cached
    /// entries in place but unused; kernels build fresh plans every call.
    pub fn set_schedules(&self, on: bool) {
        self.sched_enabled.store(on, Ordering::Relaxed);
    }

    /// The schedule cache (test introspection).
    pub fn schedules(&self) -> &ScheduleCache {
        &self.sched
    }

    /// Resolve the communication schedule for `(op, class)` on this
    /// context: replay the cached plan when its stamps still match, run
    /// the `build` inspector otherwise (and cache the result). Bumps the
    /// `sched_builds` / `sched_replays` / `sched_invalidations` metrics;
    /// with schedules disabled the inspector always runs and no metric
    /// moves. Called on the driver thread between supersteps, never from
    /// locale tasks.
    pub fn schedule(
        &self,
        op: &'static str,
        class: FrontierClass,
        grid: (usize, usize),
        mat_gen: u64,
        aux: u64,
        build: impl FnOnce() -> PlanData,
    ) -> (Arc<PlanData>, SchedOutcome) {
        let key = SchedKey { op, grid, class };
        let (plan, outcome) =
            self.sched.resolve(self.schedules_enabled(), key, mat_gen, aux, build);
        match outcome {
            SchedOutcome::Built => self.metrics.sched_builds(1),
            SchedOutcome::Replayed => self.metrics.sched_replays(1),
            SchedOutcome::Invalidated => {
                self.metrics.sched_invalidations(1);
                self.metrics.sched_builds(1);
            }
            SchedOutcome::Off => {}
        }
        (plan, outcome)
    }

    /// The wall-clock executor for per-locale superstep bodies.
    pub fn executor(&self) -> LocaleExecutor {
        self.executor
    }

    /// Override the wall-clock executor (results and simulated times are
    /// identical either way; tests pin this).
    pub fn set_executor(&mut self, executor: LocaleExecutor) {
        self.executor = executor;
    }

    /// Turn tracing on; returns the recorder (clone it freely — all clones
    /// share the same trace). Operations run after this call emit spans.
    pub fn enable_tracing(&mut self) -> TraceRecorder {
        let r = TraceRecorder::new();
        self.recorder = r.clone();
        self.comm.instrument(r.clone(), Arc::clone(&self.metrics));
        r
    }

    /// The trace recorder (disabled unless [`DistCtx::enable_tracing`] or
    /// [`DistCtx::with_instrumentation`] provided one).
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// The cumulative metrics registry shared with the comm layer.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Total locales of the machine.
    pub fn locales(&self) -> usize {
        self.machine.locales()
    }

    /// A fresh per-locale execution context — `threads_per_locale` logical
    /// threads, serial real execution (deterministic) — on locale `l`'s
    /// long-lived workspace pool, so kernel scratch checked out by the
    /// superstep body is returned to the pool when the body's guards drop
    /// and reused by the next superstep that runs on `l`. The context
    /// itself (counters, profile) is fresh.
    pub fn locale_ctx_for(&self, l: usize) -> ExecCtx {
        ExecCtx::on_pool(self.machine.threads_per_locale, 1, Arc::clone(&self.pools[l]))
    }

    /// Enable or disable workspace pooling on every locale's pool
    /// (disabling drains them).
    pub fn set_workspace_enabled(&self, on: bool) {
        for pool in &self.pools {
            pool.set_enabled(on);
        }
    }

    /// Aggregate workspace-pool accounting across every locale.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        let mut total = WorkspaceStats::default();
        for pool in &self.pools {
            total.merge(&pool.stats());
        }
        total
    }

    /// Mirror per-locale pool accounting into the shared metrics
    /// registry. Superstep bodies check scratch out through short-lived
    /// per-locale [`ExecCtx`]s whose registries are discarded, so the
    /// pool-side counters are authoritative; this charges whatever they
    /// accumulated since the last sync to the [`DistCtx`] registry that
    /// the CLI's metrics dump reads. Called by [`OpTrace::finish`], so a
    /// traced run's `pool_hits`/`pool_misses`/`allocs`/`alloc_bytes`
    /// match [`DistCtx::workspace_stats`] after every distributed op.
    /// Returns the delta charged by this call (what the op consumed since
    /// the previous sync) so callers can stamp it onto the op's span.
    pub fn sync_workspace_metrics(&self) -> WorkspaceStats {
        let now = self.workspace_stats();
        let mut synced = self.ws_synced.lock();
        let d = now.saturating_sub(&synced);
        *synced = now;
        drop(synced);
        self.metrics.pool_hits(d.pool_hits);
        self.metrics.pool_misses(d.pool_misses);
        self.metrics.allocs(d.allocs);
        self.metrics.alloc_bytes(d.alloc_bytes);
        d
    }

    /// Run one superstep SPMD-style: `f(l)` once per locale, results in
    /// locale order. See [`DistCtx::for_each_locale_state`].
    ///
    /// Cross-locale writes must be staged through an [`Outbox`] built in
    /// one superstep and drained by the owning locale in the next.
    pub fn for_each_locale<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(usize) -> Result<R> + Sync,
    {
        let mut unit = vec![(); self.locales()];
        self.for_each_locale_state(&mut unit, |l, ()| f(l))
    }

    /// Run one superstep SPMD-style with per-locale mutable state: `f(l,
    /// &mut states[l])` once per locale — `states` is split into disjoint
    /// `&mut` borrows, so each task mutates only its own locale's share
    /// (Chapel's `on loc` locality discipline, enforced by the borrow
    /// checker).
    ///
    /// Under [`LocaleExecutor::Threaded`] the bodies run on scoped worker
    /// threads (at most one OS thread per locale); under
    /// [`LocaleExecutor::Serial`] they run in locale order on the caller.
    /// Either way every locale body runs to completion before this
    /// returns (the superstep barrier), results come back in locale
    /// order, and if any bodies fail the error of the *lowest-numbered*
    /// locale is returned — so error propagation is deterministic even
    /// when a fault races between concurrent tasks.
    pub fn for_each_locale_state<S, R, F>(&self, states: &mut [S], f: F) -> Result<Vec<R>>
    where
        S: Send,
        R: Send,
        F: Fn(usize, &mut S) -> Result<R> + Sync,
    {
        let workers = match self.executor {
            LocaleExecutor::Serial => 1,
            LocaleExecutor::Threaded => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }
        };
        let results = fork_join(workers, states.iter_mut(), || (), |(), l, s| f(l, s));
        // Lowest-numbered failing locale wins, whichever finished first.
        results.into_iter().collect()
    }

    /// Per-locale compute time of one phase: each locale's priced counters.
    fn price_compute_per_locale(&self, phase: &str, per_locale: &[Profile]) -> Vec<f64> {
        per_locale
            .iter()
            .map(|p| self.machine.cost.phase_time(&p.phase(phase), self.machine.threads_per_locale))
            .collect()
    }

    /// Compute time of one phase across locales: the bulk-synchronous
    /// `max` of each locale's priced counters.
    fn price_compute(&self, phase: &str, per_locale: &[Profile]) -> f64 {
        self.price_compute_per_locale(phase, per_locale).into_iter().fold(0.0, f64::max)
    }

    /// Price all phases of per-locale profiles, mapping each profile phase
    /// through `rename(phase)` into the report (used to fold e.g. the
    /// local SpMSpV's `spa`/`sort`/`output` into the figure's single
    /// "Local Multiply" component).
    fn price_compute_all(
        &self,
        per_locale: &[Profile],
        rename: impl Fn(&str) -> String,
    ) -> SimReport {
        let mut names: Vec<String> = Vec::new();
        for p in per_locale {
            for n in p.phase_names() {
                if !names.iter().any(|m| m == n) {
                    names.push(n.to_string());
                }
            }
        }
        let mut report = SimReport::default();
        for n in &names {
            report.push(&rename(n), self.price_compute(n, per_locale));
        }
        report
    }

    /// Detailed communication pricing: per phase, each locale's summed
    /// transfer seconds and a message/byte summary of what it initiated.
    ///
    /// Rules (see `gblas_sim::NetworkModel`):
    /// * each event is charged to its initiating locale; a phase's comm
    ///   time is the max over locales of their summed event costs;
    /// * `Fine` events pay `α_fine / concurrency` per message — the
    ///   requests come from a parallel loop and pipeline;
    /// * `FineDependent` events pay the full `α_fine` per message (a
    ///   dependent chain cannot pipeline), inflated by the congestion
    ///   factor for the number of locales involved in the phase — the
    ///   mechanism behind the gather's growth in Figs 8–9;
    /// * intra-node traffic (colocated locales) uses the cheaper
    ///   intra-node constants but is additionally multiplied by the
    ///   colocation contention factor (Fig 10's mechanism);
    /// * `Bulk` events pay `α_bulk` per message plus bytes over bandwidth.
    fn price_comm_detailed(&self, events: &[CommEvent]) -> Vec<CommPhaseCost> {
        let net = &self.machine.network;
        let mut phases: Vec<&str> = Vec::new();
        for e in events {
            if !phases.contains(&e.phase.as_str()) {
                phases.push(&e.phase);
            }
        }
        let mut out = Vec::with_capacity(phases.len());
        for phase in phases {
            let evs: Vec<&CommEvent> = events.iter().filter(|e| e.phase == phase).collect();
            let mut involved: Vec<usize> = evs.iter().flat_map(|e| [e.src, e.dst]).collect();
            involved.sort_unstable();
            involved.dedup();
            let congestion = net.congestion(involved.len());
            let colo = self.machine.colocation_factor();
            let mut per_locale_seconds = vec![0.0f64; self.machine.locales()];
            let mut per_locale_summary = vec![CommSummary::default(); self.machine.locales()];
            let mut peers: Vec<Vec<usize>> = vec![Vec::new(); self.machine.locales()];
            let mut per_pair: Vec<(usize, usize, u64, u64)> = Vec::new();
            for e in &evs {
                let intra = self.machine.same_node(e.src, e.dst);
                let t = match e.kind {
                    CommKind::Fine => {
                        let base =
                            if intra { net.fine_time_intra(e.msgs) } else { net.fine_time(e.msgs) };
                        base * if intra { colo } else { 1.0 }
                    }
                    CommKind::FineDependent => {
                        let base =
                            if intra { net.fine_time_intra(e.msgs) } else { net.fine_time(e.msgs) };
                        base * net.fine_concurrency * congestion * if intra { colo } else { 1.0 }
                    }
                    CommKind::Bulk => {
                        let base = if intra {
                            net.bulk_time_intra(e.msgs, e.bytes)
                        } else {
                            net.bulk_time(e.msgs, e.bytes)
                        };
                        base * if intra { colo } else { 1.0 }
                    }
                };
                per_locale_seconds[e.src] += t;
                let s = &mut per_locale_summary[e.src];
                match e.kind {
                    CommKind::Fine => s.fine_msgs += e.msgs,
                    CommKind::FineDependent => s.fine_dependent_msgs += e.msgs,
                    CommKind::Bulk => s.bulk_msgs += e.msgs,
                }
                s.bytes += e.bytes;
                if !peers[e.src].contains(&e.dst) {
                    peers[e.src].push(e.dst);
                }
                match per_pair.iter_mut().find(|(ps, pd, _, _)| *ps == e.src && *pd == e.dst) {
                    Some(p) => {
                        p.2 += e.msgs;
                        p.3 += e.bytes;
                    }
                    None => per_pair.push((e.src, e.dst, e.msgs, e.bytes)),
                }
            }
            for (s, p) in per_locale_summary.iter_mut().zip(&peers) {
                s.peers = p.len() as u64;
            }
            per_pair.sort_unstable_by_key(|&(s, d, _, _)| (s, d));
            out.push(CommPhaseCost {
                phase: phase.to_string(),
                per_locale_seconds,
                per_locale_summary,
                per_pair,
            });
        }
        out
    }

    /// The `coforall loc in Locales` fan-out cost for one superstep.
    fn spawn_time(&self) -> f64 {
        self.machine.locale_spawn_time()
    }

    /// Begin an op-level trace. The returned builder is how distributed
    /// operations assemble their [`SimReport`]; when tracing is enabled it
    /// *also* materializes the operation → phase → per-locale span tree on
    /// the recorder, and it always bumps the metrics registry. The span's
    /// `wall_ns` runs from this call to [`OpTrace::finish`], so an
    /// operation opens its trace on entry, before the work it reports.
    pub fn op<'a>(&'a self, name: &str) -> OpTrace<'a> {
        OpTrace {
            dctx: self,
            name: name.to_string(),
            attrs: Vec::new(),
            nnz: 0,
            report: SimReport::default(),
            detail: if self.recorder.is_enabled() { Some(Vec::new()) } else { None },
            wall_start: std::time::Instant::now(),
        }
    }
}

/// One phase's priced communication: per-locale seconds + traffic summary.
#[derive(Debug, Clone)]
struct CommPhaseCost {
    /// Phase name (matches the op's compute phases).
    phase: String,
    /// Transfer seconds charged to each initiating locale.
    per_locale_seconds: Vec<f64>,
    /// What each locale initiated (messages by kind, bytes, peers).
    per_locale_summary: Vec<CommSummary>,
    /// Pairwise `(src, dst, msgs, bytes)` traffic, sorted by `(src, dst)`
    /// — the raw material of the profiler's locale×locale comm matrix.
    per_pair: Vec<(usize, usize, u64, u64)>,
}

impl CommPhaseCost {
    /// The phase's bulk-synchronous comm time: slowest locale.
    fn max_seconds(&self) -> f64 {
        self.per_locale_seconds.iter().cloned().fold(0.0, f64::max)
    }

    /// The locale whose transfers dominated this phase (lowest index on
    /// ties), `None` when nothing moved.
    fn max_locale(&self) -> Option<usize> {
        argmax_positive(&self.per_locale_seconds)
    }
}

/// Index of the strictly-largest positive entry (first on ties), `None`
/// when every entry is zero — the shared "who was slowest" convention.
fn argmax_positive(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v > 0.0 && best.map(|(_, bv)| v > bv).unwrap_or(true) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Per-phase compute detail buffered while an op runs (only when tracing).
#[derive(Debug, Default)]
struct PhaseDetail {
    name: String,
    /// Spawn-overhead seconds folded into this phase.
    spawn_seconds: f64,
    /// `(locale, seconds, counters)` compute segments.
    segments: Vec<(usize, f64, Counters)>,
}

/// Builder that assembles a distributed operation's [`SimReport`] and —
/// when the context's recorder is enabled — the matching span tree.
///
/// Usage inside an op:
///
/// ```ignore
/// let mut op = dctx.op("spmspv_dist");
/// op.spawn("gather", 1);
/// op.compute("gather", &gather_profiles);
/// op.compute_folded("local", &local_profiles);
/// op.compute("scatter", &scatter_profiles);
/// let report = op.finish(); // drains + prices comm, emits spans/metrics
/// ```
///
/// Tracing changes no reported second: with the recorder disabled the
/// builder costs one branch per call.
#[derive(Debug)]
pub struct OpTrace<'a> {
    dctx: &'a DistCtx,
    name: String,
    attrs: Vec<(String, String)>,
    nnz: u64,
    report: SimReport,
    /// Per-locale segment detail; `None` when the recorder is disabled so
    /// the untraced path stays allocation-light.
    detail: Option<Vec<PhaseDetail>>,
    wall_start: std::time::Instant,
}

impl OpTrace<'_> {
    /// Attach a display attribute (dims, strategy, …) to the op span.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// Record how many nonzeros this op processed (metrics + op attr).
    pub fn nnz(&mut self, nnz: u64) -> &mut Self {
        self.nnz = nnz;
        self.attr("nnz", nnz)
    }

    /// Stamp how this op's communication schedule resolved
    /// (`built`/`replayed`/`invalidated`/`off`) on the op span.
    pub fn sched(&mut self, outcome: SchedOutcome) -> &mut Self {
        self.attr("sched", outcome.as_str())
    }

    /// Charge `count` fork-join fan-outs (`coforall loc in Locales`) to
    /// `phase`.
    pub fn spawn(&mut self, phase: &str, count: usize) -> &mut Self {
        let t = self.dctx.spawn_time() * count as f64;
        self.report.push(phase, t);
        if self.detail.is_some() {
            self.phase_detail(phase).spawn_seconds += t;
        }
        self
    }

    /// Price `profiles`' phase `phase` into the report phase of the same
    /// name (bulk-synchronous max over locales).
    pub fn compute(&mut self, phase: &str, profiles: &[Profile]) -> &mut Self {
        self.compute_as(phase, phase, profiles)
    }

    /// Price `profiles`' phase `profile_phase` into report phase
    /// `report_phase` (the two differ when a dist op reuses a core
    /// kernel's phase name).
    pub fn compute_as(
        &mut self,
        report_phase: &str,
        profile_phase: &str,
        profiles: &[Profile],
    ) -> &mut Self {
        let per_locale = self.dctx.price_compute_per_locale(profile_phase, profiles);
        self.report.push_attributed(
            report_phase,
            per_locale.iter().cloned().fold(0.0, f64::max),
            argmax_positive(&per_locale),
        );
        if self.detail.is_some() {
            let counters: Vec<Counters> = profiles.iter().map(|p| p.phase(profile_phase)).collect();
            let d = self.phase_detail(report_phase);
            for (l, (sec, c)) in per_locale.into_iter().zip(counters).enumerate() {
                d.segments.push((l, sec, c));
            }
        }
        self
    }

    /// Fold *all* phases of `profiles` into one report phase (each source
    /// phase contributes its own max-over-locales; per-locale segments
    /// carry the summed seconds and counters).
    pub fn compute_folded(&mut self, report_phase: &str, profiles: &[Profile]) -> &mut Self {
        let folded = self.dctx.price_compute_all(profiles, |_| report_phase.to_string());
        self.report.merge(&folded);
        // Per-locale folded totals: the attribution (always) and the
        // traced segment detail both need them; the merge above is what
        // prices the phase.
        let mut per_locale: Vec<(f64, Counters)> = vec![(0.0, Counters::default()); profiles.len()];
        let mut names: Vec<String> = Vec::new();
        for p in profiles {
            for n in p.phase_names() {
                if !names.iter().any(|m| m == n) {
                    names.push(n.to_string());
                }
            }
        }
        for n in &names {
            let secs = self.dctx.price_compute_per_locale(n, profiles);
            for (l, s) in secs.into_iter().enumerate() {
                per_locale[l].0 += s;
                per_locale[l].1.merge(&profiles[l].phase(n));
            }
        }
        let work: Vec<f64> = per_locale.iter().map(|(s, _)| *s).collect();
        if let Some(l) = argmax_positive(&work) {
            self.report.attribute(report_phase, l, work[l]);
        }
        if self.detail.is_some() {
            let d = self.phase_detail(report_phase);
            for (l, (sec, c)) in per_locale.into_iter().enumerate() {
                d.segments.push((l, sec, c));
            }
        }
        self
    }

    fn phase_detail(&mut self, phase: &str) -> &mut PhaseDetail {
        let detail = self.detail.as_mut().expect("detail buffered only when tracing");
        if let Some(pos) = detail.iter().position(|d| d.name == phase) {
            &mut detail[pos]
        } else {
            detail.push(PhaseDetail { name: phase.to_string(), ..Default::default() });
            detail.last_mut().unwrap()
        }
    }

    /// Drain and price the context's communication log, merge it into the
    /// report, emit the span tree (if tracing) and metrics, and return the
    /// finished report.
    pub fn finish(self) -> SimReport {
        let OpTrace { dctx, name, mut attrs, nnz, mut report, detail, wall_start } = self;
        let comm_costs = dctx.price_comm_detailed(&dctx.comm.take_events());
        // Bulk-synchronous pricing: each phase's comm serializes after its
        // compute.
        for c in &comm_costs {
            report.push_attributed(&c.phase, c.max_seconds(), c.max_locale());
        }

        dctx.metrics.ops_executed(1);
        dctx.metrics.nnz_processed(nnz);
        let ws = dctx.sync_workspace_metrics();

        if let Some(detail) = detail {
            let recorder = &dctx.recorder;
            let wall_ns = wall_start.elapsed().as_nanos() as u64;
            let (op_start, _) = recorder.advance(report.total());
            let mut counters_total = Counters::default();
            for d in &detail {
                for (_, _, c) in &d.segments {
                    counters_total.merge(c);
                }
            }
            if !attrs.iter().any(|(k, _)| k == "locales") {
                attrs.push(("locales".to_string(), dctx.locales().to_string()));
            }
            // Workspace-pool accounting for this op, so the summary sink
            // (and any JSONL consumer) sees pool reuse without a separate
            // metrics dump. Deterministic across executors: pools are
            // per-locale and the workload is identical.
            if ws != WorkspaceStats::default() {
                attrs.push(("ws_pool_hits".to_string(), ws.pool_hits.to_string()));
                attrs.push(("ws_pool_misses".to_string(), ws.pool_misses.to_string()));
                attrs.push(("ws_allocs".to_string(), ws.allocs.to_string()));
                attrs.push(("ws_alloc_bytes".to_string(), ws.alloc_bytes.to_string()));
            }
            let op_id = recorder.span(
                None,
                &name,
                SpanKind::Op,
                None,
                op_start,
                report.total(),
                wall_ns,
                counters_total,
                attrs,
                None,
            );
            let mut spans = 1u64;
            let mut phase_start = op_start;
            for pname in report.phase_names() {
                let phase_dur = report.phase(pname);
                let comm = comm_costs.iter().find(|c| c.phase == pname);
                let comm_max = comm.map(|c| c.max_seconds()).unwrap_or(0.0);
                let compute_dur = (phase_dur - comm_max).max(0.0);
                let phase_id = recorder.span(
                    Some(op_id),
                    pname,
                    SpanKind::Phase,
                    None,
                    phase_start,
                    phase_dur,
                    0,
                    Counters::default(),
                    Vec::new(),
                    None,
                );
                spans += 1;
                if let Some(d) = detail.iter().find(|d| d.name == pname) {
                    for (l, sec, c) in &d.segments {
                        if *sec > 0.0 || !c.is_empty() {
                            recorder.span(
                                Some(phase_id),
                                pname,
                                SpanKind::LocaleCompute,
                                Some(*l),
                                phase_start,
                                *sec,
                                0,
                                *c,
                                Vec::new(),
                                None,
                            );
                            spans += 1;
                        }
                    }
                }
                if let Some(c) = comm {
                    // Comm segments start once the slowest locale's compute
                    // (plus spawn) is done — the bulk-synchronous picture.
                    let comm_start = phase_start + compute_dur;
                    for (l, sec) in c.per_locale_seconds.iter().enumerate() {
                        if *sec > 0.0 || !c.per_locale_summary[l].is_empty() {
                            // Per-destination traffic attrs (`dst3_msgs`,
                            // `dst3_bytes`, sorted by destination): what the
                            // profiler's comm matrix is rebuilt from.
                            let mut comm_attrs = Vec::new();
                            for &(src, dst, msgs, bytes) in &c.per_pair {
                                if src == l {
                                    comm_attrs.push((dst_msgs_key(dst), msgs.to_string()));
                                    comm_attrs.push((dst_bytes_key(dst), bytes.to_string()));
                                }
                            }
                            recorder.span(
                                Some(phase_id),
                                pname,
                                SpanKind::LocaleComm,
                                Some(l),
                                comm_start,
                                *sec,
                                0,
                                Counters::default(),
                                comm_attrs,
                                Some(c.per_locale_summary[l].clone()),
                            );
                            spans += 1;
                        }
                    }
                }
                phase_start += phase_dur;
            }
            dctx.metrics.spans_recorded(spans);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::par::Counters;

    /// The logged communication events priced per phase: the max over
    /// locales of [`DistCtx::price_comm_detailed`]'s per-locale seconds.
    fn price_comm(ctx: &DistCtx, events: &[CommEvent]) -> SimReport {
        let mut report = SimReport::default();
        for c in ctx.price_comm_detailed(events) {
            report.push_attributed(&c.phase, c.max_seconds(), c.max_locale());
        }
        report
    }

    #[test]
    fn price_compute_takes_max_locale() {
        let machine = MachineConfig::edison_cluster(2, 24);
        let ctx = DistCtx::new(machine);
        let mut p0 = Profile::default();
        p0.counters_mut("work").elems = 1_000_000;
        let mut p1 = Profile::default();
        p1.counters_mut("work").elems = 4_000_000;
        let t = ctx.price_compute("work", &[p0.clone(), p1.clone()]);
        let t1_alone = ctx.price_compute("work", &[p1]);
        assert!((t - t1_alone).abs() < 1e-12, "slowest locale defines the superstep");
        let t0_alone = ctx.price_compute("work", &[p0]);
        assert!(t > t0_alone);
    }

    #[test]
    fn fine_comm_much_more_expensive_than_bulk_for_same_bytes() {
        let ctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        ctx.comm.fine("f", 0, 1, 100_000, 800_000).unwrap();
        ctx.comm.bulk("b", 0, 1, 1, 800_000).unwrap();
        let r = price_comm(&ctx, &ctx.comm.events());
        assert!(r.phase("f") > 20.0 * r.phase("b"));
    }

    #[test]
    fn congestion_grows_with_participants_for_dependent_chains() {
        // Same per-locale message count, more participating locales.
        let ctx2 = DistCtx::new(MachineConfig::edison_cluster(2, 24));
        ctx2.comm.fine_dependent("g", 0, 1, 1000, 8000).unwrap();
        ctx2.comm.fine_dependent("g", 1, 0, 1000, 8000).unwrap();
        let t2 = price_comm(&ctx2, &ctx2.comm.events()).phase("g");

        let ctx8 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        for l in 0..8 {
            ctx8.comm.fine_dependent("g", l, (l + 1) % 8, 1000, 8000).unwrap();
        }
        let t8 = price_comm(&ctx8, &ctx8.comm.events()).phase("g");
        assert!(t8 > t2, "8-way exchange should be slower per message: {t8} vs {t2}");
    }

    #[test]
    fn pipelined_fine_does_not_congest_but_dependent_does() {
        let ctx = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        ctx.comm.fine("pipelined", 0, 1, 1000, 8000).unwrap();
        ctx.comm.fine_dependent("dependent", 0, 1, 1000, 8000).unwrap();
        let r = price_comm(&ctx, &ctx.comm.events());
        // Dependent pays full latency (no pipelining), so it is at least
        // fine_concurrency times slower even before congestion.
        assert!(r.phase("dependent") >= 3.9 * r.phase("pipelined"));
    }

    #[test]
    fn intra_node_colocation_pays_contention() {
        let one = DistCtx::new(MachineConfig::edison_colocated(2));
        one.comm.fine("p", 0, 1, 10_000, 80_000).unwrap();
        let t2 = price_comm(&one, &one.comm.events()).phase("p");

        let many = DistCtx::new(MachineConfig::edison_colocated(16));
        many.comm.fine("p", 0, 1, 10_000, 80_000).unwrap();
        let t16 = price_comm(&many, &many.comm.events()).phase("p");
        assert!(t16 > 2.0 * t2, "colocation contention must bite: {t16} vs {t2}");
    }

    #[test]
    fn rename_folds_phases() {
        let ctx = DistCtx::new(MachineConfig::edison_cluster(1, 24));
        let mut p = Profile::default();
        p.counters_mut("spa").flops = 1000;
        p.counters_mut("sort").sort_elems = 1000;
        p.counters_mut("output").elems = 100;
        let r = ctx.price_compute_all(&[p], |_| "local".to_string());
        assert_eq!(r.phase_names(), vec!["local"]);
        assert!(r.phase("local") > 0.0);
    }

    #[test]
    fn locale_ctx_uses_machine_threads() {
        let ctx = DistCtx::new(MachineConfig::edison_cluster(2, 24));
        assert_eq!(ctx.locale_ctx_for(1).threads(), 24);
        let c = Counters::default();
        assert!(c.is_empty());
    }

    #[test]
    fn comm_detailed_agrees_with_price_comm_and_summarizes_traffic() {
        let ctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        ctx.comm.fine("g", 0, 1, 100, 800).unwrap();
        ctx.comm.fine_dependent("g", 1, 2, 50, 400).unwrap();
        ctx.comm.bulk("s", 2, 3, 1, 4096).unwrap();
        let events = ctx.comm.events();
        let detailed = ctx.price_comm_detailed(&events);
        let report = price_comm(&ctx, &events);
        assert_eq!(detailed.len(), 2);
        for c in &detailed {
            assert!((c.max_seconds() - report.phase(&c.phase)).abs() < 1e-15);
        }
        let g = &detailed[0];
        assert_eq!(g.per_locale_summary[0].fine_msgs, 100);
        assert_eq!(g.per_locale_summary[1].fine_dependent_msgs, 50);
        assert_eq!(g.per_locale_summary[0].peers, 1);
        assert_eq!(detailed[1].per_locale_summary[2].bulk_msgs, 1);
    }

    #[test]
    fn op_trace_report_matches_manual_assembly() {
        // The OpTrace builder's report equals the pricing functions
        // composed by hand, traced or not.
        let build = |dctx: &DistCtx| {
            let mut p0 = Profile::default();
            p0.counters_mut("gather").elems = 10_000;
            p0.counters_mut("spa").flops = 2_000;
            p0.counters_mut("sort").sort_elems = 5_000;
            let mut p1 = Profile::default();
            p1.counters_mut("gather").elems = 40_000;
            p1.counters_mut("spa").flops = 1_000;
            dctx.comm.fine_dependent("gather", 0, 1, 500, 4000).unwrap();
            dctx.comm.bulk("scatter", 1, 0, 1, 800).unwrap();
            (vec![p0.clone(), p1.clone()], vec![p0, p1])
        };

        // Composed by hand.
        let manual_ctx = DistCtx::new(MachineConfig::edison_cluster(2, 24));
        let (gather, local) = build(&manual_ctx);
        let mut manual = SimReport::default();
        manual
            .push("gather", manual_ctx.spawn_time() + manual_ctx.price_compute("gather", &gather));
        manual.merge(&manual_ctx.price_compute_all(&local, |_| "local".to_string()));
        manual.merge(&price_comm(&manual_ctx, &manual_ctx.comm.take_events()));

        for traced in [false, true] {
            let mut dctx = DistCtx::new(MachineConfig::edison_cluster(2, 24));
            if traced {
                dctx.enable_tracing();
            }
            let (gather, local) = build(&dctx);
            let mut op = dctx.op("test_op");
            op.spawn("gather", 1);
            op.compute("gather", &gather);
            op.compute_folded("local", &local);
            let report = op.finish();
            assert_eq!(report, manual, "traced={traced}");
        }
    }

    #[test]
    fn schedule_resolution_counts_metrics() {
        use crate::sched::GatherPlan;
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        dctx.set_schedules(true);
        let grid = crate::grid::ProcGrid::new(2, 2);
        let rows = |l: usize| (l * 10)..(l * 10 + 10);
        let out = crate::grid::BlockDist::new(40, 4);
        let build = || PlanData::Gather(GatherPlan::build(grid, rows, rows, &out));
        let (_, o) = dctx.schedule("t", FrontierClass::Sparse, (2, 2), 1, 0, build);
        assert_eq!(o, SchedOutcome::Built);
        let (_, o) = dctx.schedule("t", FrontierClass::Sparse, (2, 2), 1, 0, build);
        assert_eq!(o, SchedOutcome::Replayed);
        let (_, o) = dctx.schedule("t", FrontierClass::Sparse, (2, 2), 2, 0, build);
        assert_eq!(o, SchedOutcome::Invalidated);
        let m = dctx.metrics().snapshot();
        assert_eq!((m.sched_builds, m.sched_replays, m.sched_invalidations), (2, 1, 1));
        // disabled: inspector runs, metrics untouched
        dctx.set_schedules(false);
        let (_, o) = dctx.schedule("t", FrontierClass::Sparse, (2, 2), 2, 0, build);
        assert_eq!(o, SchedOutcome::Off);
        assert_eq!(dctx.metrics().snapshot().sched_builds, 2);
    }

    #[test]
    fn op_trace_emits_span_tree_with_locale_segments() {
        let mut dctx = DistCtx::new(MachineConfig::edison_cluster(2, 24));
        let recorder = dctx.enable_tracing();
        let mut p0 = Profile::default();
        p0.counters_mut("work").elems = 1_000;
        let mut p1 = Profile::default();
        p1.counters_mut("work").elems = 9_000;
        dctx.comm.bulk("work", 0, 1, 1, 4096).unwrap();
        let mut op = dctx.op("unit_op");
        op.attr("n", 10_000).nnz(10_000);
        op.compute("work", &[p0, p1]);
        let report = op.finish();

        let trace = recorder.snapshot();
        let op_span = &trace.spans[0];
        assert_eq!(op_span.kind, SpanKind::Op);
        assert_eq!(op_span.name, "unit_op");
        assert!((op_span.sim_dur - report.total()).abs() < 1e-15);
        assert!(op_span.attrs.iter().any(|(k, v)| k == "nnz" && v == "10000"));
        assert!(op_span.attrs.iter().any(|(k, v)| k == "locales" && v == "2"));

        let phases: Vec<_> = trace.spans.iter().filter(|s| s.kind == SpanKind::Phase).collect();
        assert_eq!(phases.len(), 1);
        assert!((phases[0].sim_dur - report.phase("work")).abs() < 1e-15);

        let computes: Vec<_> =
            trace.spans.iter().filter(|s| s.kind == SpanKind::LocaleCompute).collect();
        assert_eq!(computes.len(), 2);
        assert_eq!(computes[0].locale, Some(0));
        assert_eq!(computes[0].counters.elems, 1_000);
        assert!(computes[1].sim_dur > computes[0].sim_dur, "locale 1 has 9x the work");

        let comms: Vec<_> = trace.spans.iter().filter(|s| s.kind == SpanKind::LocaleComm).collect();
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].locale, Some(0));
        let cs = comms[0].comm.as_ref().unwrap();
        assert_eq!(cs.bulk_msgs, 1);
        assert_eq!(cs.bytes, 4096);
        // comm follows the compute portion of the phase
        assert!(comms[0].sim_start > phases[0].sim_start);

        let m = dctx.metrics().snapshot();
        assert_eq!(m.ops_executed, 1);
        assert_eq!(m.nnz_processed, 10_000);
        assert_eq!(m.bulk_msgs, 1);
        assert_eq!(m.spans_recorded, trace.spans.len() as u64);
    }

    #[test]
    fn consecutive_ops_lay_out_end_to_end_on_the_sim_clock() {
        let mut dctx = DistCtx::new(MachineConfig::edison_cluster(2, 24));
        let recorder = dctx.enable_tracing();
        for _ in 0..2 {
            let mut p = Profile::default();
            p.counters_mut("w").elems = 1_000_000;
            let mut op = dctx.op("o");
            op.compute("w", &[p.clone(), p]);
            op.finish();
        }
        let trace = recorder.snapshot();
        let ops: Vec<_> = trace.spans.iter().filter(|s| s.kind == SpanKind::Op).collect();
        assert_eq!(ops.len(), 2);
        assert!((ops[1].sim_start - (ops[0].sim_start + ops[0].sim_dur)).abs() < 1e-15);
    }
}
