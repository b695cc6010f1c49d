//! The pinned library surface: every call the benchmark makes into the
//! `gblas-*` crates is in this file, and nothing else is.
//!
//! The functions are calls only — no loops over solves, no timing, no
//! checking. They use the most user-facing entry point that does the job
//! (the `gblas_graph` wrappers, free functions in `gblas_core::ops` and
//! `gblas_dist::ops`, `gen`, `ExecCtx`, `DistCtx`) and never the backend
//! trait, so a refactor behind those entry points leaves the benchmark
//! untouched. `benchmark/README.md` lists the surface.

use gblas_bench::serve;
use gblas_core::algebra::{semirings, Max, Plus};
use gblas_core::container::{CooMatrix, DupPolicy, SparseFrontier};
use gblas_core::mask::VecMask;
use gblas_core::ops;
use gblas_core::ops::selection::SelectionPolicy;
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::sort::SortAlgo;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DcscBlock, DistDenseVec, DistSparseVec, LocaleExecutor, MxmAlgo};
use gblas_graph::{MclOptions, PageRankOptions};
use gblas_sim::{CostModel, MachineConfig};

// Handles the rest of the benchmark passes around without looking inside.
pub use gblas_core::container::{CsrMatrix, DenseVec, SparseVec};
pub use gblas_core::par::ExecCtx;
pub use gblas_dist::{DistCsrMatrix, DistCtx};
pub use gblas_graph::BfsResult;
pub use gblas_sim::SimReport;

/// The workloads' matrix type.
pub type Graph = CsrMatrix<f64>;
/// The distributed form of [`Graph`].
pub type DistGraph = DistCsrMatrix<f64>;

type R<T> = Result<T, String>;

fn err(e: gblas_core::GblasError) -> String {
    e.to_string()
}

/// Logical threads of every simulated locale (the library's own default
/// in its tests, examples and CLI: one 24-core Edison node per locale).
const THREADS_PER_LOCALE: usize = 24;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

pub fn gen_rmat(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    gblas_core::gen::rmat(scale, edge_factor, seed)
}

pub fn gen_er_symmetric(n: usize, d: usize, seed: u64) -> Graph {
    gblas_core::gen::erdos_renyi_symmetric(n, d, seed)
}

pub fn gen_sparse_vec(capacity: usize, nnz: usize, seed: u64) -> SparseVec<f64> {
    gblas_core::gen::random_sparse_vec(capacity, nnz, seed)
}

pub fn gen_dense_bool(len: usize, frac_true: f64, seed: u64) -> DenseVec<bool> {
    gblas_core::gen::random_dense_bool(len, frac_true, seed)
}

/// The CSR build: triplets through the COO builder. With `mirror`, every
/// off-diagonal entry is also stored transposed and the diagonal dropped —
/// the symmetrisation `gblas-cli --symmetrize` performs.
pub fn csr_from_entries(a: &Graph, mirror: bool) -> R<Graph> {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    coo.reserve(if mirror { 2 * a.nnz() } else { a.nnz() });
    for (i, j, &v) in a.iter() {
        if !mirror {
            coo.push(i, j, v).map_err(err)?;
        } else if i != j {
            coo.push(i, j, v).map_err(err)?;
            coo.push(j, i, v).map_err(err)?;
        }
    }
    coo.to_csr_with(DupPolicy::KeepLast, |x, _| x).map_err(err)
}

pub fn distribute(a: &Graph, grid: (usize, usize)) -> DistGraph {
    DistCsrMatrix::from_global(a, gblas_dist::ProcGrid::new(grid.0, grid.1))
}

/// Convert every block of `da` to DCSC; returns the non-empty columns.
pub fn dcsc_convert(da: &DistGraph) -> usize {
    (0..da.grid().locales()).map(|l| DcscBlock::from_csr(da.block(l)).nzc()).sum()
}

/// Matrix Market text out and back in, in memory.
pub fn mtx_roundtrip(a: &Graph) -> R<Graph> {
    let mut text = Vec::new();
    gblas_core::io::write_matrix_market(&mut text, a).map_err(err)?;
    gblas_core::io::read_matrix_market(text.as_slice()).map_err(err)
}

/// Walk every row through `CsrMatrix::row`; returns a checksum so the
/// scan cannot be optimised away.
pub fn csr_scan(a: &Graph) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            acc += v * (j & 1) as f64;
        }
    }
    acc
}

pub fn nrows(a: &Graph) -> usize {
    a.nrows()
}

pub fn nnz(a: &Graph) -> usize {
    a.nnz()
}

/// The plain CSR arrays the oracles read.
pub fn csr_arrays(a: &Graph) -> (&[usize], &[usize]) {
    (a.rowptr(), a.colidx())
}

pub fn csr_values(a: &Graph) -> &[f64] {
    a.values()
}

pub fn matrices_equal(a: &Graph, b: &Graph) -> bool {
    a.nrows() == b.nrows() && a.rowptr() == b.rowptr() && a.colidx() == b.colidx()
}

pub fn sparse_from_sorted(capacity: usize, indices: Vec<usize>) -> R<SparseVec<usize>> {
    let values = indices.clone();
    SparseVec::from_sorted(capacity, indices, values).map_err(err)
}

pub fn sparse_indices(x: &SparseVec<usize>) -> &[usize] {
    x.indices()
}

pub fn dense_bool(bits: Vec<bool>) -> DenseVec<bool> {
    DenseVec::from_vec(bits)
}

// ---------------------------------------------------------------------
// Contexts and their public counters
// ---------------------------------------------------------------------

pub fn shared_ctx(threads: usize) -> ExecCtx {
    ExecCtx::with_threads(threads)
}

/// A fresh simulated cluster of `locales` Edison nodes. `serial` runs the
/// locale bodies back to back on the calling thread, so a wall time
/// measures the program and not the host's scheduler.
pub fn dist_ctx(locales: usize, serial: bool) -> DistCtx {
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(locales, THREADS_PER_LOCALE));
    dctx.set_executor(if serial { LocaleExecutor::Serial } else { LocaleExecutor::Threaded });
    dctx
}

pub fn set_schedules(dctx: &DistCtx, on: bool) {
    dctx.set_schedules(on);
}

pub fn set_pooling(ctx: &ExecCtx, on: bool) {
    ctx.workspace().set_enabled(on);
}

/// `(hits, misses)` of the context's workspace pool so far.
pub fn pool_stats(ctx: &ExecCtx) -> (u64, u64) {
    let stats = ctx.workspace().stats();
    (stats.pool_hits, stats.pool_misses)
}

/// The work counters the ledger reads, summed over a profile's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    pub flops: u64,
    pub sort_elems: u64,
    pub atomics: u64,
    pub spa_touches: u64,
    pub tasks: u64,
    pub regions: u64,
}

/// Take and reset the context's work counters.
pub fn take_counters(ctx: &ExecCtx) -> WorkCounts {
    let c = ctx.take_profile().total();
    WorkCounts {
        flops: c.flops,
        sort_elems: c.sort_elems,
        atomics: c.atomics,
        spa_touches: c.spa_touches,
        tasks: c.tasks,
        regions: c.regions,
    }
}

/// Take the context's profile and price it on `threads` Edison threads:
/// `(simulated seconds, simulated seconds of the sort phase)`.
pub fn take_simulated(ctx: &ExecCtx, threads: usize) -> (f64, f64) {
    let report = CostModel::edison().profile_time(&ctx.take_profile(), threads);
    (report.total(), report.phase(ops::spmspv::PHASE_SORT))
}

/// `(messages, bytes)` logged by the context so far.
pub fn comm_totals(dctx: &DistCtx) -> (u64, u64) {
    let (fine, bulk, bytes) = dctx.comm.totals();
    (fine + bulk, bytes)
}

/// `(schedule builds, schedule replays)` counted by the context so far.
pub fn sched_counts(dctx: &DistCtx) -> (u64, u64) {
    let m = dctx.metrics().snapshot();
    (m.sched_builds, m.sched_replays)
}

pub fn sim_total(report: &SimReport) -> f64 {
    report.total()
}

/// `(phase name, simulated seconds)` of a report, in its own order.
pub fn sim_phases(report: &SimReport) -> Vec<(String, f64)> {
    report.iter().map(|p| (p.name.clone(), p.seconds)).collect()
}

/// Run `f` under the library's own trace recorder and return
/// `(phase spans, largest "stages" attribute of an op span)`: the
/// supersteps of what ran, and the SUMMA stage count if it multiplied.
pub fn library_trace_counts(
    dctx: &mut DistCtx,
    f: impl FnOnce(&DistCtx) -> R<()>,
) -> R<(u64, u64)> {
    let recorder = dctx.enable_tracing();
    f(dctx)?;
    let trace = recorder.snapshot();
    let phases =
        trace.spans.iter().filter(|s| s.kind == gblas_core::trace::SpanKind::Phase).count();
    let stages = trace
        .spans
        .iter()
        .flat_map(|s| s.attrs.iter())
        .filter(|(k, _)| k == "stages")
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    Ok((phases as u64, stages))
}

// ---------------------------------------------------------------------
// Solves: shared memory
// ---------------------------------------------------------------------

pub fn bfs(a: &Graph, source: usize, ctx: &ExecCtx) -> R<BfsResult> {
    gblas_graph::bfs(a, source, ctx).map_err(err)
}

pub fn bfs_bucketed(a: &Graph, source: usize, ctx: &ExecCtx) -> R<BfsResult> {
    let opts = SpMSpVOpts::with_merge(MergeStrategy::Bucketed);
    gblas_graph::bfs_with(a, source, opts, ctx).map_err(err)
}

pub fn bfs_auto(a: &Graph, source: usize, ctx: &ExecCtx) -> R<BfsResult> {
    gblas_graph::bfs_selected(a, source, SelectionPolicy::Auto, SpMSpVOpts::default(), ctx)
        .map(|(result, _)| result)
        .map_err(err)
}

pub fn bfs_multi(a: &Graph, sources: &[usize], ctx: &ExecCtx) -> R<Vec<BfsResult>> {
    gblas_graph::bfs_multi(a, sources, ctx).map_err(err)
}

pub fn bfs_levels(result: &BfsResult) -> &[i64] {
    result.levels.as_slice()
}

pub fn bfs_validate(result: &BfsResult, a: &Graph, source: usize) -> bool {
    result.validate(a, source).is_ok()
}

pub fn pagerank(a: &Graph, ctx: &ExecCtx) -> R<(Vec<f64>, usize)> {
    gblas_graph::pagerank(a, PageRankOptions::default(), ctx)
        .map(|(ranks, iters)| (ranks.into_vec(), iters))
        .map_err(err)
}

/// `(damping, tolerance, iteration cap)` of the default PageRank options.
pub fn pagerank_defaults() -> (f64, f64, usize) {
    let o = PageRankOptions::default();
    (o.damping, o.tolerance, o.max_iterations)
}

pub fn triangle_count(a: &Graph, ctx: &ExecCtx) -> R<u64> {
    gblas_graph::triangle_count(a, ctx).map_err(err)
}

pub fn markov_cluster(a: &Graph, ctx: &ExecCtx) -> R<(Vec<usize>, usize)> {
    gblas_graph::markov_cluster(a, MclOptions::default(), ctx).map_err(err)
}

/// `(inflation, prune threshold, tolerance, iteration cap)` of the
/// default MCL options.
pub fn mcl_defaults() -> (f64, f64, f64, usize) {
    let o = MclOptions::default();
    (o.inflation, o.prune_threshold, o.tolerance, o.max_iterations)
}

pub fn add_self_loops(a: &Graph) -> R<Graph> {
    gblas_graph::mcl::add_self_loops(a).map_err(err)
}

// ---------------------------------------------------------------------
// Solves: simulated distributed memory
// ---------------------------------------------------------------------

pub fn bfs_dist(da: &DistGraph, source: usize, dctx: &DistCtx) -> R<(BfsResult, SimReport)> {
    gblas_graph::bfs_dist_with(da, source, CommStrategy::Bulk, SpMSpVOpts::default(), dctx)
        .map_err(err)
}

pub fn pagerank_dist(da: &DistGraph, dctx: &DistCtx) -> R<((Vec<f64>, usize), SimReport)> {
    gblas_graph::pagerank_dist_on(da, PageRankOptions::default(), dctx)
        .map(|(ranks, iters, report)| ((ranks.into_vec(), iters), report))
        .map_err(err)
}

pub fn triangle_count_dist(da: &DistGraph, dctx: &DistCtx) -> R<(u64, SimReport)> {
    gblas_graph::triangle_count_dist(da, dctx).map_err(err)
}

pub fn markov_cluster_dist(
    a: &Graph,
    grid: (usize, usize),
    dctx: &DistCtx,
) -> R<((Vec<usize>, usize), SimReport)> {
    let grid = gblas_dist::ProcGrid::new(grid.0, grid.1);
    gblas_graph::markov_cluster_dist(a, grid, MclOptions::default(), dctx)
        .map(|(labels, iters, report)| ((labels, iters), report))
        .map_err(err)
}

// ---------------------------------------------------------------------
// Kernels: gblas_core::ops, gblas_core::sort
// ---------------------------------------------------------------------

/// One BFS level: first-visitor SpMSpV from `frontier` restricted to the
/// complement of `visited`.
pub fn spmspv_first_visitor(
    a: &Graph,
    frontier: &SparseVec<usize>,
    visited: Option<&DenseVec<bool>>,
    bucketed: bool,
    ctx: &ExecCtx,
) -> R<SparseVec<usize>> {
    let merge = if bucketed { MergeStrategy::Bucketed } else { MergeStrategy::SortBased };
    let mask = visited.map(|v| VecMask::dense(v).complement());
    ops::spmspv::spmspv_first_visitor(
        a,
        frontier,
        mask.as_ref(),
        SpMSpVOpts::with_merge(merge),
        ctx,
    )
    .map_err(err)
}

/// Batched first-visitor expansion of `frontiers` (one per source) with
/// nothing visited yet.
pub fn expand_first_visitor(
    a: &Graph,
    frontiers: Vec<SparseVec<usize>>,
    ctx: &ExecCtx,
) -> R<usize> {
    let k = frontiers.len();
    let f = SparseFrontier::new(a.nrows(), frontiers).map_err(err)?;
    let visited: Vec<DenseVec<bool>> = (0..k).map(|_| DenseVec::filled(a.ncols(), false)).collect();
    ops::expand::expand_first_visitor(a, &f, &visited, SpMSpVOpts::default(), ctx)
        .map(|out| out.nnz())
        .map_err(err)
}

pub fn merge_sort(data: &mut [usize], ctx: &ExecCtx) {
    gblas_core::sort::sort_indices(data, SortAlgo::Merge, ctx, "sort");
}

pub fn radix_sort(data: &mut [usize], ctx: &ExecCtx) {
    gblas_core::sort::sort_indices(data, SortAlgo::Radix, ctx, "sort");
}

/// `y = A x` over `(+, ×)`.
pub fn spmv_row(a: &Graph, x: &DenseVec<f64>, ctx: &ExecCtx) -> R<DenseVec<f64>> {
    ops::spmv::spmv_row(a, x, &semirings::plus_times_f64(), ctx).map_err(err)
}

/// `y = x A` over `(+, ×)` — the orientation PageRank iterates.
pub fn spmv_col(a: &Graph, x: &DenseVec<f64>, ctx: &ExecCtx) -> R<DenseVec<f64>> {
    ops::spmv::spmv_col(a, x, &semirings::plus_times_f64(), ctx).map_err(err)
}

pub fn dense_f64(values: Vec<f64>) -> DenseVec<f64> {
    DenseVec::from_vec(values)
}

pub fn dense_values(x: &DenseVec<f64>) -> &[f64] {
    x.as_slice()
}

/// Strictly lower triangle.
pub fn select_lower(a: &Graph, ctx: &ExecCtx) -> Graph {
    ops::select::select_mat(a, &|i, j, _| j < i, ctx)
}

pub fn select_at_least(a: &Graph, threshold: f64, ctx: &ExecCtx) -> Graph {
    ops::select::select_mat(a, &|_, _, v: f64| v >= threshold, ctx)
}

pub fn transpose(a: &Graph, ctx: &ExecCtx) -> R<Graph> {
    ops::transpose::transpose(a, ctx).map_err(err)
}

/// Masked SpGEMM `C⟨mask⟩ = A · B` over plus-pair (integer counts).
pub fn mxm_masked_count(a: &Graph, b: &Graph, mask: &Graph, ctx: &ExecCtx) -> R<CsrMatrix<u64>> {
    ops::mxm::mxm(a, b, &semirings::plus_pair(), Some(mask), ctx).map_err(err)
}

/// Unmasked SpGEMM `A · A` over `(+, ×)`.
pub fn mxm_square(a: &Graph, ctx: &ExecCtx) -> R<Graph> {
    ops::mxm::mxm::<_, _, f64, _, _, bool>(a, a, &semirings::plus_times_f64(), None, ctx)
        .map_err(err)
}

pub fn reduce_all_u64(c: &CsrMatrix<u64>, ctx: &ExecCtx) -> u64 {
    ops::reduce::reduce_mat(c, &Plus, ctx)
}

pub fn reduce_rows_plus(a: &Graph, ctx: &ExecCtx) -> Vec<f64> {
    ops::reduce::reduce_rows(a, &Plus, ctx).into_vec()
}

pub fn reduce_rows_max(a: &Graph, ctx: &ExecCtx) -> Vec<f64> {
    ops::reduce::reduce_rows(a, &Max, ctx).into_vec()
}

pub fn map_mat(a: &Graph, f: &(impl Fn(usize, usize, f64) -> f64 + Sync), ctx: &ExecCtx) -> Graph {
    ops::apply::map_mat(a, f, ctx)
}

/// Apply, out of place (a flat `forall` into a fresh vector).
pub fn apply_v1(x: &SparseVec<f64>, ctx: &ExecCtx) -> SparseVec<f64> {
    ops::apply::apply_vec(x, &|v: f64| v + 1.0, ctx)
}

/// Apply, in place over per-task chunks (the SPMD shape of Listing 3).
pub fn apply_v2(x: &mut SparseVec<f64>, ctx: &ExecCtx) {
    ops::apply::apply_vec_inplace(x, &|v: f64| v + 1.0, ctx);
}

pub fn empty_sparse(capacity: usize) -> SparseVec<f64> {
    SparseVec::new(capacity)
}

/// Assign, index at a time (Listing 4).
pub fn assign_v1(a: &mut SparseVec<f64>, b: &SparseVec<f64>, ctx: &ExecCtx) -> R<()> {
    ops::assign::assign_v1(a, b, ctx).map_err(err)
}

/// Assign, bulk (Listing 5).
pub fn assign_v2(a: &mut SparseVec<f64>, b: &SparseVec<f64>, ctx: &ExecCtx) -> R<()> {
    ops::assign::assign_v2(a, b, ctx).map_err(err)
}

/// eWiseMult as the paper measures it: sparse × dense filter with atomic
/// compaction (Listing 6).
pub fn ewise_mult(x: &SparseVec<f64>, y: &DenseVec<bool>, ctx: &ExecCtx) -> R<usize> {
    ops::ewise::ewise_filter_atomic(x, y, &|_: f64, keep| keep, ctx).map(|z| z.nnz()).map_err(err)
}

/// Sparse ∪ sparse merge of two sorted vectors.
pub fn sparse_merge(a: &SparseVec<f64>, b: &SparseVec<f64>, ctx: &ExecCtx) -> R<usize> {
    ops::ewise::ewise_add(a, b, &Plus, ctx).map(|z| z.nnz()).map_err(err)
}

// ---------------------------------------------------------------------
// Kernels: gblas_dist::ops
// ---------------------------------------------------------------------

pub fn spmspv_dist(da: &DistGraph, frontier: &SparseVec<usize>, dctx: &DistCtx) -> R<SimReport> {
    let dx = DistSparseVec::from_global(frontier, dctx.locales());
    gblas_dist::ops::spmspv::spmspv_dist_with(
        da,
        &dx,
        None,
        CommStrategy::Bulk,
        SpMSpVOpts::default(),
        dctx,
    )
    .map(|(_, report)| report)
    .map_err(err)
}

pub fn spmv_dist(da: &DistGraph, x: &DenseVec<f64>, dctx: &DistCtx) -> R<SimReport> {
    let dx = DistDenseVec::from_global(x, dctx.locales());
    gblas_dist::ops::spmv::spmv_dist::<f64, f64, f64, _, _>(
        da,
        &dx,
        &semirings::plus_times_f64(),
        dctx,
    )
    .map(|(_, report)| report)
    .map_err(err)
}

/// Distributed `A · A` over `(+, ×)`: the multi-stage 2-D SUMMA, or the
/// 3-D variant with `layers` replication layers (`dctx` must then hold
/// `layers` times the grid's locales).
pub fn mxm_dist_square(da: &DistGraph, layers: usize, dctx: &DistCtx) -> R<(usize, SimReport)> {
    let algo = if layers > 1 { MxmAlgo::Summa3d { layers } } else { MxmAlgo::Summa2d };
    gblas_dist::ops::mxm::mxm_dist_masked_with::<f64, f64, f64, _, _, bool>(
        da,
        da,
        &semirings::plus_times_f64(),
        None,
        algo,
        dctx,
    )
    .map(|(c, report)| (c.nnz(), report))
    .map_err(err)
}

// ---------------------------------------------------------------------
// Ablation variants on the simulated cluster (two-clock report)
// ---------------------------------------------------------------------

pub fn bfs_dist_bucketed(da: &DistGraph, source: usize, dctx: &DistCtx) -> R<SimReport> {
    let opts = SpMSpVOpts::with_merge(MergeStrategy::Bucketed);
    gblas_graph::bfs_dist_with(da, source, CommStrategy::Bulk, opts, dctx)
        .map(|(_, report)| report)
        .map_err(err)
}

pub fn bfs_dist_auto(da: &DistGraph, source: usize, dctx: &DistCtx) -> R<SimReport> {
    gblas_graph::bfs_selected_dist(
        da,
        source,
        SelectionPolicy::Auto,
        CommStrategy::Bulk,
        SpMSpVOpts::default(),
        dctx,
    )
    .map(|(_, _, report)| report)
    .map_err(err)
}

pub fn bfs_multi_dist(da: &DistGraph, sources: &[usize], dctx: &DistCtx) -> R<SimReport> {
    gblas_graph::bfs_multi_dist(da, sources, dctx).map(|(_, report)| report).map_err(err)
}

// ---------------------------------------------------------------------
// Serving path: gblas_bench::serve
// ---------------------------------------------------------------------

/// Replay `count` BFS queries that all arrive at once through the batched
/// server (up to 8 per sweep) and the one-at-a-time loop; returns
/// `(qps batched, qps loop)` on the wall clock.
pub fn serve_qps(a: &Graph, threads: usize, count: usize, seed: u64) -> R<(f64, f64)> {
    let spec = serve::ArrivalSpec { dist: serve::ArrivalDist::Uniform, rate: 1e9 };
    let requests = serve::generate_requests(count, a.nrows(), spec, seed);
    let policy = serve::ServePolicy::batch_window(8, 1e-3);
    let (batched, looped) =
        serve::serve_bench_shared(a, threads, &requests, policy).map_err(err)?;
    Ok((batched.qps, looped.qps))
}
