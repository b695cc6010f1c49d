//! Instrumented fork-join runtime.
//!
//! Chapel expresses parallelism with `forall` (data-parallel over a domain)
//! and `coforall` (one explicit task per iteration, the SPMD style the paper
//! repeatedly falls back to for performance). This module provides the same
//! two shapes for Rust:
//!
//! * [`ExecCtx::parallel_for`] — a `forall`: an index range split into one
//!   contiguous chunk per *logical* thread.
//! * [`ExecCtx::for_each_task`] — a `coforall`: exactly `ntasks` explicit
//!   tasks, each receiving its task id.
//!
//! The runtime separates **logical threads** (the thread count being
//! *simulated*, swept 1..32 in the paper's figures) from **real OS threads**
//! (bounded by the host, 2 in CI). Execution is real — every task body
//! actually runs and produces real results — while [`Counters`] record the
//! work performed (elements streamed, binary-search probes, atomic RMWs,
//! sort passes, SPA touches, messages are counted in `gblas-dist`).
//! `gblas-sim` prices the counters with a calibrated model of the paper's
//! 24-core Edison node, which is what lets a 2-core container regenerate
//! 32-thread scaling curves whose *shape* is driven by the measured work,
//! not by a guess.

mod counters;
mod profile;

pub use counters::Counters;
pub use profile::Profile;

use crate::spa::{AtomicSpa, DenseSpa, RangeSpa};
use crate::trace::{MetricsRegistry, SpanKind, TraceRecorder};
use crate::workspace::{WorkspacePool, WsGuard};
use parking_lot::Mutex;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Execution context carried by every operation.
///
/// Holds the logical thread count, the real-thread budget, and the
/// accumulated [`Profile`] of everything executed under this context — plus
/// the observability handles: a [`TraceRecorder`] (disabled by default) and
/// a shared [`MetricsRegistry`].
pub struct ExecCtx {
    /// Logical (simulated) thread count: the number of tasks a `forall`
    /// region creates. Mirrors `CHPL_RT_NUM_THREADS_PER_LOCALE`.
    threads: usize,
    /// Real OS threads used to execute tasks. `1` gives fully
    /// deterministic execution (tasks run in task-id order).
    real_threads: usize,
    profile: Mutex<Profile>,
    recorder: TraceRecorder,
    metrics: Arc<MetricsRegistry>,
    /// Reusable kernel scratch (SPAs, staging vectors, outboxes) shared
    /// by every op run under this context — see [`crate::workspace`].
    workspace: Arc<WorkspacePool>,
}

impl ExecCtx {
    /// Fully serial, deterministic context (1 logical, 1 real thread).
    pub fn serial() -> Self {
        Self::new(1, 1)
    }

    /// `threads` logical threads, executed on up to `threads` real cores
    /// (capped by the host's available parallelism). This is the "library
    /// user" constructor: logical == real wherever possible.
    pub fn with_threads(threads: usize) -> Self {
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(threads, threads.min(avail))
    }

    /// `threads` logical threads, executed **serially** on the calling
    /// thread. Deterministic; used by tests and by the figure harness when
    /// sweeping thread counts far beyond the host's core count (the
    /// counters, and therefore the simulated times, are identical to a
    /// parallel execution up to atomic-race winners).
    pub fn simulated(threads: usize) -> Self {
        Self::new(threads, 1)
    }

    /// Explicit constructor. `threads >= 1`, `real_threads >= 1`. The
    /// context gets a workspace pool of its own, pooling on.
    pub fn new(threads: usize, real_threads: usize) -> Self {
        Self::on_pool(threads, real_threads, Arc::new(WorkspacePool::default()))
    }

    /// [`ExecCtx::new`] over an existing workspace pool — the distributed
    /// layer hands every superstep's per-locale context the *same*
    /// long-lived pool so scratch survives across supersteps and
    /// iterations.
    pub fn on_pool(threads: usize, real_threads: usize, workspace: Arc<WorkspacePool>) -> Self {
        ExecCtx {
            threads: threads.max(1),
            real_threads: real_threads.max(1),
            profile: Mutex::new(Profile::default()),
            recorder: TraceRecorder::disabled(),
            metrics: Arc::new(MetricsRegistry::default()),
            workspace,
        }
    }

    /// Attach a trace recorder and metrics registry. Operations run under
    /// this context afterwards emit wall-clock op spans and count into the
    /// shared registry.
    pub fn instrument(&mut self, recorder: TraceRecorder, metrics: Arc<MetricsRegistry>) {
        self.recorder = recorder;
        self.metrics = metrics;
    }

    /// The trace recorder (disabled unless [`ExecCtx::instrument`]ed).
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// The cumulative metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The workspace pool ops under this context check scratch out of.
    pub fn workspace(&self) -> &Arc<WorkspacePool> {
        &self.workspace
    }

    /// Check out a [`DenseSpa`] over `0..capacity` from the pool.
    pub fn ws_dense_spa<T: Copy + Send + 'static>(
        &self,
        capacity: usize,
        fill: T,
    ) -> WsGuard<DenseSpa<T>> {
        self.workspace.dense_spa(capacity, fill, &self.metrics)
    }

    /// Check out an [`AtomicSpa`] over `0..capacity` for `ntasks` claiming
    /// tasks from the pool.
    pub fn ws_atomic_spa(&self, capacity: usize, ntasks: usize) -> WsGuard<AtomicSpa> {
        self.workspace.atomic_spa(capacity, ntasks, &self.metrics)
    }

    /// Check out a [`RangeSpa`] for `capacity` columns, `ntasks` appending
    /// tasks and `nbufs` append buffers from the pool.
    pub(crate) fn ws_range_spa<W: Copy + Send + 'static>(
        &self,
        capacity: usize,
        ntasks: usize,
        nbufs: usize,
        fill: W,
    ) -> WsGuard<RangeSpa<W>> {
        self.workspace.range_spa(capacity, ntasks, nbufs, fill, &self.metrics)
    }

    /// Check out an empty staging vector from the pool.
    pub fn ws_vec<T: Send + 'static>(&self) -> WsGuard<Vec<T>> {
        self.workspace.vec(&self.metrics)
    }

    /// Check out a `vec![fill; len]`-shaped scratch vector from the pool.
    pub fn ws_filled_vec<T: Clone + Send + 'static>(&self, len: usize, fill: T) -> WsGuard<Vec<T>> {
        self.workspace.filled_vec(len, fill, &self.metrics)
    }

    /// Check out a `n`-slot outbox (vector of empty vectors) from the pool.
    pub fn ws_nested_vec<T: Send + 'static>(&self, n: usize) -> WsGuard<Vec<Vec<T>>> {
        self.workspace.nested_vec(n, &self.metrics)
    }

    /// Open an op-level span: bumps `ops_executed`/`nnz_processed`, and —
    /// when the recorder is enabled — emits a span on drop carrying the
    /// wall-clock nanoseconds and the [`Counters`] delta this op added to
    /// the context's profile. Shared-memory spans are wall-timed instants
    /// on the simulated clock (core cannot price counters; `gblas-sim`
    /// does), so their `sim_dur` is zero.
    pub fn trace_op<'a>(&'a self, name: &str, nnz: u64, attrs: &[(&str, usize)]) -> OpSpan<'a> {
        self.trace_op_attrs(name, nnz, attrs, &[])
    }

    /// [`ExecCtx::trace_op`] with additional string-valued attributes
    /// (strategy names, adaptive-selection decisions) alongside the
    /// numeric ones.
    pub fn trace_op_attrs<'a>(
        &'a self,
        name: &str,
        nnz: u64,
        attrs: &[(&str, usize)],
        str_attrs: &[(&str, &str)],
    ) -> OpSpan<'a> {
        self.metrics.ops_executed(1);
        self.metrics.nnz_processed(nnz);
        let mut span_attrs = Vec::with_capacity(attrs.len() + str_attrs.len() + 1);
        span_attrs.push(("nnz".to_string(), nnz.to_string()));
        for (k, v) in attrs {
            span_attrs.push((k.to_string(), v.to_string()));
        }
        for (k, v) in str_attrs {
            span_attrs.push((k.to_string(), v.to_string()));
        }
        OpSpan {
            ctx: self,
            name: name.to_string(),
            attrs: span_attrs,
            before: if self.recorder.is_enabled() {
                Some(self.profile.lock().total())
            } else {
                None
            },
            wall_start: std::time::Instant::now(),
        }
    }

    /// Logical thread count (the task count of `forall` regions).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Real OS threads in use.
    pub fn real_threads(&self) -> usize {
        self.real_threads
    }

    /// Record counters into `phase` without spawning a region (serial work).
    pub fn record(&self, phase: &str, f: impl FnOnce(&mut Counters)) {
        let mut p = self.profile.lock();
        f(p.counters_mut(phase));
    }

    /// Take and reset the accumulated profile.
    pub fn take_profile(&self) -> Profile {
        std::mem::take(&mut self.profile.lock())
    }

    /// Peek at the accumulated profile.
    pub fn profile(&self) -> Profile {
        self.profile.lock().clone()
    }

    /// `coforall`: run exactly `ntasks` tasks, each with its id and a local
    /// [`Counters`]. Results come back in task order. Counters are merged
    /// into `phase`, and the region/task bookkeeping is recorded.
    pub fn for_each_task<R, F>(&self, phase: &str, ntasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Counters) -> R + Sync,
    {
        assert!(ntasks > 0, "for_each_task requires at least one task");
        // Counters only add, so merging in completion order is exact.
        let merged =
            Mutex::new(Counters { regions: 1, tasks: ntasks as u64, ..Counters::default() });
        let results = fork_join(
            self.real_threads,
            0..ntasks,
            || (),
            |_, _, t| {
                let mut c = Counters::default();
                let r = f(t, &mut c);
                merged.lock().merge(&c);
                r
            },
        );
        self.record(phase, |c| c.merge(&merged.into_inner()));
        results
    }

    /// `forall` over `0..len`: the range is split into `self.threads`
    /// near-equal contiguous chunks (Chapel's default block iteration), and
    /// each chunk runs as one task.
    pub fn parallel_for<R, F>(&self, phase: &str, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>, &mut Counters) -> R + Sync,
    {
        let chunks = split_ranges(len, self.threads);
        self.for_each_task(phase, chunks.len(), |t, c| f(chunks[t].clone(), c))
    }
}

/// Guard returned by [`ExecCtx::trace_op`]; records the span when dropped.
pub struct OpSpan<'a> {
    ctx: &'a ExecCtx,
    name: String,
    attrs: Vec<(String, String)>,
    /// Profile totals when the op started (`Some` only when tracing).
    before: Option<Counters>,
    wall_start: std::time::Instant,
}

impl Drop for OpSpan<'_> {
    fn drop(&mut self) {
        let Some(before) = self.before.take() else { return };
        let delta = self.ctx.profile.lock().total().saturating_sub(&before);
        let cursor = self.ctx.recorder.cursor();
        self.ctx.recorder.span(
            None,
            &self.name,
            SpanKind::Op,
            None,
            cursor,
            0.0,
            self.wall_start.elapsed().as_nanos() as u64,
            delta,
            std::mem::take(&mut self.attrs),
            None,
        );
        self.ctx.metrics.spans_recorded(1);
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("threads", &self.threads)
            .field("real_threads", &self.real_threads)
            .finish_non_exhaustive()
    }
}

/// The one fork-join loop: run `f(&mut state, t, item)` for the `t`-th of
/// `items` on up to `nworkers` scoped OS threads and return the results in
/// task order. Every item is owned by exactly one call (so a task may hold
/// a `&mut` borrow), each worker builds its `worker_state` once and reuses
/// it across the tasks it runs, and with one worker (or one task) the
/// tasks run inline on the caller, in order. Workers pull tasks from a
/// shared queue; a panic in a task is re-raised on the caller with its
/// payload once the other workers have drained the queue.
pub fn fork_join<I, W, R>(
    nworkers: usize,
    items: impl ExactSizeIterator<Item = I> + Send,
    worker_state: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, usize, I) -> R + Sync,
) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let ntasks = items.len();
    let nworkers = nworkers.min(ntasks);
    let items = items.enumerate();
    if nworkers <= 1 {
        let mut state = worker_state();
        return items.map(|(t, item)| f(&mut state, t, item)).collect();
    }
    let queue = Mutex::new(items);
    let done = Mutex::new(Vec::with_capacity(ntasks));
    let panicked = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..nworkers {
            scope.spawn(|| {
                let take = || queue.lock().next();
                let work = || {
                    let mut state = worker_state();
                    while let Some((t, item)) = take() {
                        let result = f(&mut state, t, item);
                        done.lock().push((t, result));
                    }
                };
                // Nothing a panicking task touched is looked at again: the
                // payload goes straight back up the caller's stack.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
                    panicked.lock().get_or_insert(payload);
                }
            });
        }
    });
    if let Some(payload) = panicked.into_inner() {
        resume_unwind(payload);
    }
    let mut done = done.into_inner();
    done.sort_unstable_by_key(|&(t, _)| t);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Split `0..len` into `ntasks` near-equal contiguous ranges. Empty ranges
/// are omitted, except that a zero-length input yields a single empty range
/// so every `forall` still runs one (trivial) task.
pub fn split_ranges(len: usize, ntasks: usize) -> Vec<Range<usize>> {
    let ntasks = ntasks.max(1);
    if len == 0 {
        #[allow(clippy::single_range_in_vec_init)] // one empty task, not a range expansion
        return vec![0..0];
    }
    let n = ntasks.min(len);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for t in 0..n {
        let sz = base + usize::from(t < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

/// Split `0..len` into `min(ntasks, len).max(1)` contiguous chunks of
/// near-equal *work*: chunk `t` starts at the first item where the running
/// sum of `weight` reaches `t / ntasks` of the total. On skewed inputs a
/// few items carry most of the work, so a chunk may be empty; it still
/// counts as a task, which keeps the task count — part of every priced
/// profile — what [`split_ranges`] gives. Two streaming passes over the
/// weights (the second as far as the last cut), nothing allocated but the
/// chunks.
pub fn split_by_work(
    len: usize,
    ntasks: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let ntasks = ntasks.min(len).max(1);
    let total: usize = (0..len).map(&weight).sum();
    let mut out = Vec::with_capacity(ntasks);
    let (mut start, mut next, mut running) = (0, 0, 0);
    // The second pass ends at the last cut. It cannot run off the end: the
    // full sum reaches every share.
    while out.len() + 1 < ntasks {
        if running * ntasks >= total * (out.len() + 1) {
            out.push(start..next);
            start = next;
        } else {
            running += weight(next);
            next += 1;
        }
    }
    out.push(start..len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn split_ranges_covers_exactly() {
        for len in [0usize, 1, 2, 7, 24, 1000] {
            for t in [1usize, 2, 3, 24, 1000] {
                let rs = split_ranges(len, t);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} t={t}");
                // contiguous and ordered
                let mut next = rs[0].start;
                for r in &rs {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                // balanced within 1
                if len > 0 {
                    let min = rs.iter().map(|r| r.len()).min().unwrap();
                    let max = rs.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    /// The prefix-array formula `mxm_emit` carried before it called the
    /// helper: chunk `t` starts at the first row whose weight prefix reaches
    /// `t / ntasks` of the total.
    fn split_by_prefix(weights: &[usize], ntasks: usize) -> Vec<Range<usize>> {
        let n = weights.len();
        let mut prefix = vec![0];
        for w in weights {
            prefix.push(prefix[prefix.len() - 1] + w);
        }
        let ntasks = ntasks.min(n).max(1);
        let cut = |t: usize| prefix.partition_point(|&w| w * ntasks < prefix[n] * t);
        let mut cuts: Vec<usize> = (0..ntasks).map(cut).collect();
        cuts.push(n);
        cuts.windows(2).map(|w| w[0]..w[1]).collect()
    }

    #[test]
    fn split_by_work_cuts_where_the_prefix_formula_did() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(20);
        let mut cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0; 9],                   // nothing to balance: all in the last chunk
            vec![1, 1, 1000, 1, 1, 1, 1], // one dominant weight: empty chunks around it
            vec![1000, 1, 1, 1, 1, 1, 1],
            vec![5, 7], // len < ntasks
            vec![3],
        ];
        for _ in 0..200 {
            let len = rng.gen_range(0..40usize);
            let skew = rng.gen_range(1..2000usize);
            cases.push((0..len).map(|_| rng.gen_range(0..skew)).collect());
        }
        for weights in &cases {
            for ntasks in [0, 1, 2, 3, 8, 24, 100] {
                let chunks = split_by_work(weights.len(), ntasks, |i| weights[i]);
                assert_eq!(chunks, split_by_prefix(weights, ntasks), "{weights:?} / {ntasks}");
                assert_eq!(chunks.len(), ntasks.min(weights.len()).max(1));
                assert_eq!(chunks.len(), split_ranges(weights.len(), ntasks).len());
                assert_eq!((chunks[0].start, chunks[chunks.len() - 1].end), (0, weights.len()));
                assert!(chunks.windows(2).all(|w| w[0].end == w[1].start), "contiguous");
                assert!(chunks.iter().all(|r| r.start <= r.end));
            }
        }
        #[allow(clippy::single_range_in_vec_init)] // one empty task, not a range expansion
        let one_empty = vec![0..0];
        assert_eq!(split_by_work(0, 8, |_| unreachable!()), one_empty);
    }

    #[test]
    fn for_each_task_returns_in_task_order() {
        for real in [1, 2, 4] {
            let ctx = ExecCtx::new(8, real);
            let out = ctx.for_each_task("t", 8, |t, _| t * 10);
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        }
    }

    #[test]
    fn fork_join_hands_each_item_to_one_task_and_keeps_task_order() {
        for nworkers in [0, 1, 2, 5, 64] {
            let mut cells = vec![0usize; 9];
            let states = AtomicU64::new(0);
            let out = fork_join(
                nworkers,
                cells.iter_mut(),
                || states.fetch_add(1, Ordering::Relaxed),
                |_, t, cell: &mut usize| {
                    *cell += t + 1;
                    t * 10
                },
            );
            assert_eq!(out, (0..9).map(|t| t * 10).collect::<Vec<_>>(), "nworkers={nworkers}");
            assert_eq!(cells, (1..=9).collect::<Vec<_>>(), "nworkers={nworkers}");
            // one state per worker, never one per task; one worker is the caller
            let built = states.load(Ordering::Relaxed) as usize;
            assert_eq!(built, nworkers.clamp(1, 9), "nworkers={nworkers}");
        }
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn fork_join_reraises_a_worker_panic_with_its_payload() {
        fork_join(
            2,
            0..8,
            || (),
            |_, t, _| {
                if t == 3 {
                    panic!("task {t} exploded");
                }
            },
        );
    }

    #[test]
    fn parallel_for_sums_correctly() {
        let data: Vec<u64> = (0..10_000).collect();
        for threads in [1, 3, 8, 32] {
            let ctx = ExecCtx::new(threads, 2);
            let partials = ctx.parallel_for("sum", data.len(), |r, c| {
                c.elems += r.len() as u64;
                data[r].iter().sum::<u64>()
            });
            let total: u64 = partials.into_iter().sum();
            assert_eq!(total, 10_000 * 9_999 / 2);
            let prof = ctx.take_profile();
            assert_eq!(prof.phase("sum").elems, 10_000);
            assert_eq!(prof.phase("sum").regions, 1);
        }
    }

    #[test]
    fn tasks_counter_matches_logical_threads() {
        let ctx = ExecCtx::simulated(24);
        ctx.parallel_for("p", 1000, |_, _| ());
        assert_eq!(ctx.take_profile().phase("p").tasks, 24);
    }

    #[test]
    fn real_parallel_execution_actually_runs_all_tasks() {
        let hits = AtomicU64::new(0);
        let ctx = ExecCtx::new(16, 2);
        ctx.for_each_task("t", 16, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn record_accumulates_across_calls() {
        let ctx = ExecCtx::serial();
        ctx.record("x", |c| c.elems += 5);
        ctx.record("x", |c| c.elems += 7);
        assert_eq!(ctx.profile().phase("x").elems, 12);
    }

    #[test]
    fn take_profile_resets() {
        let ctx = ExecCtx::serial();
        ctx.record("x", |c| c.elems += 1);
        let _ = ctx.take_profile();
        assert_eq!(ctx.take_profile().phase("x").elems, 0);
    }

    #[test]
    fn zero_length_parallel_for_runs_one_empty_task() {
        let ctx = ExecCtx::with_threads(4);
        let out = ctx.parallel_for("z", 0, |r, _| r.len());
        assert_eq!(out, vec![0]);
    }
}
