//! The distributed implementation of [`GblasBackend`]: every primitive op
//! maps to its bulk-synchronous distributed kernel, and every call's
//! [`SimReport`] accumulates into a backend-held ledger the algorithm
//! wrapper drains with [`DistBackend::take_report`].
//!
//! This is the "version 2" half of the paper's split made reusable: the
//! algorithm text is identical to the shared-memory run, but each
//! primitive executes one task per locale over block-distributed
//! containers, pays its gather/scatter/broadcast traffic into the comm
//! ledger, and emits trace spans under the ambient [`DistCtx`].

use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use crate::ops::spmspv::{push, Accumulate, CommStrategy, DistMask, FirstVisitor};
use crate::vec::{DistDenseVec, DistSparseVec};
use gblas_core::algebra::{BinaryOp, ComMonoid, Monoid, Scalar, Semiring};
use gblas_core::backend::{GblasBackend, MaskSpec};
use gblas_core::container::{DenseVec, SparseVec};
use gblas_core::error::Result;
use gblas_core::ops::selection;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_sim::SimReport;
use parking_lot::Mutex;

/// The simulated distributed-memory backend.
///
/// Wraps a [`DistCtx`] plus the communication strategy every SpMSpV-style
/// kernel should use, and accumulates the per-op [`SimReport`]s so a
/// whole algorithm run prices as one ledger.
pub struct DistBackend<'a> {
    /// The distributed execution context (machine, comm log, tracing).
    pub dctx: &'a DistCtx,
    /// Gather/scatter aggregation for the sparse-vector kernels.
    pub strategy: CommStrategy,
    /// SUMMA variant every `mxm_masked` call routes through
    /// (`--mxm-grid 2d|3d` at the CLI).
    pub mxm_algo: crate::ops::mxm::MxmAlgo,
    report: Mutex<SimReport>,
}

impl<'a> DistBackend<'a> {
    /// A backend using fine-grained communication (Listing 8 as written).
    pub fn new(dctx: &'a DistCtx) -> Self {
        Self::with_strategy(dctx, CommStrategy::Fine)
    }

    /// A backend with an explicit communication strategy.
    pub fn with_strategy(dctx: &'a DistCtx, strategy: CommStrategy) -> Self {
        DistBackend {
            dctx,
            strategy,
            mxm_algo: crate::ops::mxm::MxmAlgo::Summa2d,
            report: Mutex::new(SimReport::default()),
        }
    }

    /// Pick the SUMMA variant for subsequent `mxm` calls.
    pub fn with_mxm(mut self, algo: crate::ops::mxm::MxmAlgo) -> Self {
        self.mxm_algo = algo;
        self
    }

    /// Drain the accumulated simulation ledger (resets it to empty).
    pub fn take_report(&self) -> SimReport {
        std::mem::take(&mut self.report.lock())
    }

    fn absorb(&self, r: SimReport) {
        self.report.lock().merge(&r);
    }

    /// Log one global scalar combine under `phase`: a `⌈log₂ p⌉`-round
    /// binomial tree of one-word bulk messages (the [`crate::ops::reduce`]
    /// combine shape), each round's senders folding into their partners.
    fn binomial_allreduce(&self, phase: &'static str) -> Result<()> {
        let p = self.dctx.locales();
        let word = std::mem::size_of::<f64>() as u64;
        let mut stride = 1usize;
        while stride < p {
            for l in (0..p).step_by(stride * 2).filter(|&l| l + stride < p) {
                self.dctx.comm.bulk(phase, l + stride, l, 1, word)?;
            }
            stride *= 2;
        }
        Ok(())
    }
}

/// Translate backend masks into the distributed [`DistMask`]s.
fn dist_masks<'m>(ms: &[MaskSpec<'m, DistDenseVec<bool>>]) -> Vec<DistMask<'m>> {
    ms.iter().map(|m| DistMask { bits: m.bits, complement: m.complement }).collect()
}

impl GblasBackend for DistBackend<'_> {
    type Matrix<T: Scalar> = DistCsrMatrix<T>;
    type SparseVec<T: Scalar> = DistSparseVec<T>;
    type DenseVec<T: Scalar> = DistDenseVec<T>;

    fn mat_nrows<T: Scalar>(&self, a: &DistCsrMatrix<T>) -> usize {
        a.nrows()
    }

    fn mat_ncols<T: Scalar>(&self, a: &DistCsrMatrix<T>) -> usize {
        a.ncols()
    }

    fn mat_nnz<T: Scalar>(&self, a: &DistCsrMatrix<T>) -> usize {
        a.nnz()
    }

    fn mat_map<T: Scalar, U: Scalar>(
        &self,
        a: &DistCsrMatrix<T>,
        f: &(impl Fn(usize, usize, T) -> U + Sync),
    ) -> Result<DistCsrMatrix<U>> {
        let (out, r) = crate::ops::select::map_mat_dist(a, f, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn mat_select<T: Scalar>(
        &self,
        a: &DistCsrMatrix<T>,
        pred: &(impl Fn(usize, usize, T) -> bool + Sync),
    ) -> Result<DistCsrMatrix<T>> {
        let (out, r) = crate::ops::select::select_mat_dist(a, pred, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    /// The raw transpose: on a rectangular grid the result lands on the
    /// flipped `pc×pr` grid. Keeping the natural placement preserves the
    /// accumulation order the vector kernels have always seen (the
    /// betweenness back sweep is bit-pinned on `p×1` grids); consumers
    /// that need grid-aligned operands (SUMMA) regrid lazily in
    /// [`Self::mxm_masked`].
    fn mat_transpose<T: Scalar>(&self, a: &DistCsrMatrix<T>) -> Result<DistCsrMatrix<T>> {
        let (out, r) = crate::ops::transpose::transpose_dist(a, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn mxm_masked<A, B, C, AddM, MulOp, M>(
        &self,
        a: &DistCsrMatrix<A>,
        b: &DistCsrMatrix<B>,
        ring: &Semiring<AddM, MulOp>,
        mask: Option<&DistCsrMatrix<M>>,
        rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    ) -> Result<DistCsrMatrix<C>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        M: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>,
    {
        // SUMMA wants every operand on A's grid; a matrix arriving on a
        // different shape (e.g. a transpose on the flipped rectangular
        // grid) is regridded here, priced as a `regrid` phase.
        let regrid = |m: &DistCsrMatrix<B>| -> Result<DistCsrMatrix<B>> {
            let (out, r) = crate::ops::transpose::redistribute_dist(m, a.grid(), self.dctx)?;
            self.absorb(r);
            Ok(out)
        };
        let b_aligned = if b.grid() == a.grid() { None } else { Some(regrid(b)?) };
        let mask_aligned = match mask {
            Some(m) if m.grid() != a.grid() => {
                let (out, r) = crate::ops::transpose::redistribute_dist(m, a.grid(), self.dctx)?;
                self.absorb(r);
                Some(out)
            }
            _ => None,
        };
        let (out, r) = crate::ops::mxm::mxm_dist_emit(
            a,
            b_aligned.as_ref().unwrap_or(b),
            ring,
            mask_aligned.as_ref().or(mask),
            rule,
            self.mxm_algo,
            self.dctx,
        )?;
        self.absorb(r);
        Ok(out)
    }

    fn reduce_rows<T: Scalar, M>(&self, a: &DistCsrMatrix<T>, monoid: &M) -> Result<Vec<T>>
    where
        M: Monoid<T>,
    {
        let (out, r) = crate::ops::reduce::reduce_rows_dist(a, monoid, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn reduce_mat<T: Scalar, M>(&self, a: &DistCsrMatrix<T>, monoid: &M) -> Result<T>
    where
        M: ComMonoid<T>,
    {
        let (out, r) = crate::ops::reduce::reduce_mat_dist(a, monoid, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn mat_row_degrees<T: Scalar>(&self, a: &DistCsrMatrix<T>) -> Result<Vec<usize>> {
        let (out, r) = crate::ops::reduce::row_degrees_dist(a, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn spmspv_first_visitor<T: Scalar>(
        &self,
        a: &DistCsrMatrix<T>,
        xs: &[DistSparseVec<usize>],
        masks: Option<&[MaskSpec<'_, DistDenseVec<bool>>]>,
        opts: SpMSpVOpts,
    ) -> Result<Vec<DistSparseVec<usize>>> {
        let (dm, strategy) = (masks.map(dist_masks), self.strategy);
        let (out, r) = push(a, xs, &FirstVisitor, dm.as_deref(), strategy, opts, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn spmspv_semiring<A, B, C, AddM, MulOp>(
        &self,
        a: &DistCsrMatrix<B>,
        xs: &[DistSparseVec<A>],
        ring: &Semiring<AddM, MulOp>,
        masks: Option<&[MaskSpec<'_, DistDenseVec<bool>>]>,
        opts: SpMSpVOpts,
    ) -> Result<Vec<DistSparseVec<C>>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>,
    {
        let (dm, strategy) = (masks.map(dist_masks), self.strategy);
        let rule = Accumulate(ring);
        let (out, r) = push(a, xs, &rule, dm.as_deref(), strategy, opts, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn spmv<A, B, C, AddM, MulOp>(
        &self,
        a: &DistCsrMatrix<B>,
        xs: &[DistDenseVec<A>],
        ring: &Semiring<AddM, MulOp>,
    ) -> Result<Vec<DistDenseVec<C>>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>,
    {
        let (out, r) = crate::ops::spmv::spmv_columns(a, xs, ring, self.dctx)?;
        self.absorb(r);
        Ok(out)
    }

    fn pull_first_visitor<T: Scalar>(
        &self,
        at: &DistCsrMatrix<T>,
        frontier: &DistDenseVec<bool>,
        visited: &DistDenseVec<bool>,
    ) -> Result<DistSparseVec<usize>> {
        let (y, report) =
            crate::ops::pull::pull_first_visitor_dist(at, frontier, visited, self.dctx)?;
        self.absorb(report);
        Ok(y)
    }

    /// Each locale fills its own bitmap segment from its own shard: the
    /// two share one block distribution, so nothing moves.
    fn sparse_to_bitmap<T: Scalar>(&self, x: &DistSparseVec<T>) -> Result<DistDenseVec<bool>> {
        let dist = x.dist();
        let segment = |l: usize| {
            let start = dist.range(l).start;
            let mut bits = vec![false; dist.size(l)];
            for &i in x.shard(l).indices() {
                bits[i - start] = true;
            }
            bits
        };
        DistDenseVec::from_segments(x.capacity(), (0..x.locales()).map(segment).collect())
    }

    fn selection_thresholds(&self) -> selection::SelectionThresholds {
        selection::SelectionThresholds::for_locales(self.dctx.locales())
    }

    /// The decision span plus the allreduce that makes it globally
    /// agreed: every locale contributes its shard's `nnz(frontier)` and
    /// unexplored count, so the winner is combined exactly like
    /// [`GblasBackend::allreduce_scalar`] before any locale commits to a
    /// direction.
    fn record_decision(
        &self,
        algo: &'static str,
        iter: usize,
        dir: selection::Direction,
        nnz_f: usize,
        unexplored: usize,
    ) -> Result<()> {
        const PHASE_SELECT: &str = "select";
        let mut op = self.dctx.op(PHASE_SELECT);
        op.attr("algo", algo)
            .attr("iter", iter)
            .attr("dir", dir.name())
            .attr("unexplored", unexplored)
            .nnz(nnz_f as u64);
        self.binomial_allreduce(PHASE_SELECT)?;
        self.absorb(op.finish());
        Ok(())
    }

    fn dense_filled<T: Scalar>(&self, len: usize, fill: T) -> DistDenseVec<T> {
        DistDenseVec::filled(len, fill, self.dctx.locales())
    }

    fn dense_from_vec<T: Scalar>(&self, v: Vec<T>) -> DistDenseVec<T> {
        DistDenseVec::from_global(&DenseVec::from_vec(v), self.dctx.locales())
    }

    fn dense_to_vec<T: Scalar>(&self, v: DistDenseVec<T>) -> Vec<T> {
        v.to_global().into_vec()
    }

    fn dense_set<T: Scalar>(&self, v: &mut DistDenseVec<T>, i: usize, value: T) {
        let dist = v.dist();
        let owner = dist.owner(i);
        let off = i - dist.range(owner).start;
        v.segment_mut(owner)[off] = value;
    }

    fn sparse_from_sorted<T: Scalar>(
        &self,
        capacity: usize,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<DistSparseVec<T>> {
        let global = SparseVec::from_sorted(capacity, indices, values)?;
        Ok(DistSparseVec::from_global(&global, self.dctx.locales()))
    }

    fn sparse_entries<T: Scalar>(&self, x: &DistSparseVec<T>) -> Vec<(usize, T)> {
        x.to_global().iter().map(|(i, &v)| (i, v)).collect()
    }

    fn sparse_nnz<T: Scalar>(&self, x: &DistSparseVec<T>) -> usize {
        x.nnz()
    }

    /// Price one global scalar decision as a binomial-tree allreduce.
    /// Runs through the [`DistCtx::op`] builder so the events are
    /// drained immediately (never leaking into the next op's report) and
    /// the simulated-clock trace advances by exactly the charged time.
    fn allreduce_scalar(&self, phase: &'static str) -> Result<()> {
        let op = self.dctx.op(phase);
        self.binomial_allreduce(phase)?;
        self.absorb(op.finish());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LocaleExecutor;
    use crate::grid::ProcGrid;
    use crate::ops::spmspv::{spmspv_dist_semiring_with, spmspv_dist_with, PHASE_GATHER};
    use gblas_core::algebra::{semirings, Plus};
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    fn machine_for(grid: ProcGrid) -> MachineConfig {
        MachineConfig::edison_cluster(grid.locales(), 24)
    }

    /// A fresh context for `grid` under `exec`.
    fn ctx(grid: ProcGrid, exec: LocaleExecutor) -> DistCtx {
        let mut dctx = DistCtx::new(machine_for(grid));
        dctx.set_executor(exec);
        dctx
    }

    /// Every (grid, strategy, executor) a batch-equals-solo test sweeps:
    /// square, rectangular and single-row/column grids, under both comm
    /// strategies and both locale executors.
    fn batch_cases() -> impl Iterator<Item = (ProcGrid, CommStrategy, LocaleExecutor)> {
        let grids = [(1, 1), (2, 2), (2, 3), (3, 2), (1, 4), (4, 1)];
        let strategies = [CommStrategy::Fine, CommStrategy::Bulk];
        let executors = [LocaleExecutor::Threaded, LocaleExecutor::Serial];
        grids.into_iter().flat_map(move |(pr, pc)| {
            let grid = ProcGrid::new(pr, pc);
            strategies
                .into_iter()
                .flat_map(move |s| executors.into_iter().map(move |e| (grid, s, e)))
        })
    }

    /// A frontier of capacity `n` over `p` locales, with one entry per
    /// (ascending) index in `at`, valued by `value`.
    fn frontier<T: Scalar>(
        n: usize,
        at: &[usize],
        value: impl Fn(usize) -> T,
        p: usize,
    ) -> DistSparseVec<T> {
        let global = SparseVec::from_sorted(n, at.to_vec(), at.iter().map(|&i| value(i)).collect());
        DistSparseVec::from_global(&global.unwrap(), p)
    }

    #[test]
    fn batched_rows_match_single_source_dist_runs() {
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 211);
        let sources = [0usize, 7, 7, 390];
        for (grid, strategy, exec) in batch_cases() {
            let (p, at) = (grid.locales(), format!("{grid:?} {strategy:?} {exec:?}"));
            let da = DistCsrMatrix::from_global(&a, grid);
            let xs: Vec<DistSparseVec<usize>> =
                sources.iter().map(|&s| frontier(n, &[s], |i| i, p)).collect();
            let visited: Vec<DistDenseVec<bool>> = sources
                .iter()
                .map(|&s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i == s), p))
                .collect();
            let masks: Vec<_> = visited.iter().map(MaskSpec::complement).collect();
            let dctx = ctx(grid, exec);
            let backend = DistBackend::with_strategy(&dctx, strategy);
            let opts = SpMSpVOpts::default();
            let batched = backend.spmspv_first_visitor(&da, &xs, Some(&masks), opts).unwrap();
            assert!(backend.take_report().total() > 0.0, "{at}");
            assert_eq!(batched.len(), sources.len(), "{at}");
            for (s, x) in xs.iter().enumerate() {
                let mask = Some(DistMask::complement(&visited[s]));
                let sctx = ctx(grid, exec);
                let (single, _) = spmspv_dist_with(&da, x, mask, strategy, opts, &sctx).unwrap();
                assert_eq!(batched[s].to_global(), single.to_global(), "{at} slot {s}");
            }
        }
    }

    #[test]
    fn batched_gather_pays_one_message_per_pair() {
        // Per level, whatever k is: one frontier message per remote row
        // peer, plus one mask message per remote owner of the column range.
        let n = 600;
        let a = gen::erdos_renyi(n, 6, 221);
        let grid = ProcGrid::new(2, 4);
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&a, grid);
        let out = crate::grid::BlockDist::new(n, p);
        let mask_owners = |l: usize| {
            let windows = crate::sched::block_overlaps(da.col_range(l), &out);
            windows.iter().filter(|w| w.0 != l).count()
        };
        // every source reaches every block, so every pair carries payload
        let expected: Vec<u64> = (0..p).map(|l| (grid.pc() - 1 + mask_owners(l)) as u64).collect();
        for k in [1usize, 3, 8] {
            let xs: Vec<DistSparseVec<usize>> = (0..k)
                .map(|s| frontier(n, &(s..n).step_by(23).collect::<Vec<_>>(), |i| i, p))
                .collect();
            let visited: Vec<DistDenseVec<bool>> = (0..k)
                .map(|s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % (s + 2) == 0), p))
                .collect();
            let masks: Vec<_> = visited.iter().map(MaskSpec::complement).collect();
            let dctx = DistCtx::new(machine_for(grid));
            dctx.comm.record_history();
            let backend = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            backend.spmspv_first_visitor(&da, &xs, Some(&masks), SpMSpVOpts::default()).unwrap();
            let history = dctx.comm.history();
            let sent = |l: usize| {
                let gathers = history.iter().filter(|e| e.phase == PHASE_GATHER && e.src == l);
                gathers.map(|e| e.msgs).sum::<u64>()
            };
            let got: Vec<u64> = (0..p).map(sent).collect();
            assert_eq!(got, expected, "k = {k}: gather messages per locale");
        }
    }

    /// Push `xs` as one batch through the trait and each alone through
    /// `spmspv_dist_semiring_with`: every row must agree bit for bit.
    fn assert_semiring_batch_is_solo<AddM, MulOp>(
        da: &DistCsrMatrix<f64>,
        xs: &[DistSparseVec<f64>],
        ring: &Semiring<AddM, MulOp>,
        (strategy, exec): (CommStrategy, LocaleExecutor),
        at: &str,
    ) where
        AddM: Monoid<f64>,
        MulOp: BinaryOp<f64, f64, f64>,
    {
        let bits = |y: &DistSparseVec<f64>| {
            let g = y.to_global();
            (g.indices().to_vec(), g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let dctx = ctx(da.grid(), exec);
        let backend = DistBackend::with_strategy(&dctx, strategy);
        let opts = SpMSpVOpts::default();
        let batched: Vec<DistSparseVec<f64>> =
            backend.spmspv_semiring(da, xs, ring, None, opts).unwrap();
        assert_eq!(batched.len(), xs.len(), "{at}");
        for (s, x) in xs.iter().enumerate() {
            let sctx = ctx(da.grid(), exec);
            let (single, _) =
                spmspv_dist_semiring_with(da, x, ring, None, strategy, opts, &sctx).unwrap();
            assert_eq!(bits(&batched[s]), bits(&single), "{at} slot {s}");
        }
    }

    #[test]
    fn batched_semiring_rows_match_single_source_dist_runs() {
        let n = 300;
        let a = gen::erdos_renyi(n, 5, 231);
        // min-plus from zero-distance roots; plus-times over random
        // frontiers, whose accumulation order shows in the low bits
        let roots = [0usize, 100, 100, 299];
        let sums: Vec<SparseVec<f64>> =
            (0..4).map(|s| gen::random_sparse_vec(n, 20, 232 + s)).collect();
        for (grid, strategy, exec) in batch_cases() {
            let (p, at) = (grid.locales(), format!("{grid:?} {strategy:?} {exec:?}"));
            let da = DistCsrMatrix::from_global(&a, grid);
            let mins: Vec<DistSparseVec<f64>> =
                roots.iter().map(|&r| frontier(n, &[r], |_| 0.0, p)).collect();
            let ring = semirings::min_plus();
            assert_semiring_batch_is_solo(&da, &mins, &ring, (strategy, exec), &at);
            let sums: Vec<DistSparseVec<f64>> =
                sums.iter().map(|x| DistSparseVec::from_global(x, p)).collect();
            let ring = semirings::plus_times_f64();
            assert_semiring_batch_is_solo(&da, &sums, &ring, (strategy, exec), &at);
        }
    }

    #[test]
    fn a_batch_runs_the_callers_one_merge_and_names_it_once() {
        use crate::ops::spmspv::PHASE_LOCAL;
        use gblas_core::ops::spmspv::MergeStrategy;
        use gblas_core::par::Counters;
        use gblas_core::trace::SpanKind;
        let (n, grid) = (2_000, ProcGrid::new(2, 2));
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&gen::erdos_renyi(n, 2, 271), grid);
        let xs: Vec<DistSparseVec<f64>> = [(40, 272), (900, 273)]
            .map(|(nnz, seed)| DistSparseVec::from_global(&gen::random_sparse_vec(n, nnz, seed), p))
            .into();
        let sort = SpMSpVOpts::with_merge(MergeStrategy::SortBased);
        // A traced trait push of `xs` under `sort`: the op's `merge`
        // attribute and the per-locale local-multiply counters, which are
        // additive over sources.
        let pushed = |xs: &[DistSparseVec<f64>]| {
            let mut dctx = DistCtx::new(machine_for(grid));
            dctx.enable_tracing();
            let backend = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            let ring = semirings::plus_times_f64();
            let _: Vec<DistSparseVec<f64>> =
                backend.spmspv_semiring(&da, xs, &ring, None, sort).unwrap();
            let trace = dctx.recorder().snapshot();
            let op = trace.spans.iter().find(|s| s.kind == SpanKind::Op).expect("op span");
            let merge = op.attrs.iter().find(|(k, _)| k == "merge").map(|(_, v)| v.clone());
            let mut local = vec![Counters::default(); p];
            for s in trace.spans.iter().filter(|s| s.kind == SpanKind::LocaleCompute) {
                if s.name == PHASE_LOCAL {
                    local[s.locale.expect("a compute span has a locale")].merge(&s.counters);
                }
            }
            (merge.expect("merge attribute"), local)
        };
        let mut want = vec![Counters::default(); p];
        for x in &xs {
            let (merge, local) = pushed(std::slice::from_ref(x));
            assert_eq!(merge, "sort");
            want.iter_mut().zip(local).for_each(|(w, c)| w.merge(&c));
        }
        assert!(want.iter().any(|c| c.sort_elems > 0), "the sort-based merge ran");
        let (merge, local) = pushed(&xs);
        assert_eq!(merge, "sort", "one name for the whole batch");
        assert_eq!(local, want, "a batch row ran a merge its solo run did not");
    }

    #[test]
    fn spmv_columns_match_single_spmv_dist_runs() {
        use crate::ops::spmv::spmv_dist;
        let n = 250;
        let a = gen::erdos_renyi(n, 5, 241);
        let ring = semirings::plus_times_f64();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let xs: Vec<DistDenseVec<f64>> = (0..3)
                .map(|s| {
                    DistDenseVec::from_global(&DenseVec::from_fn(n, |i| ((i + s) % 7) as f64), p)
                })
                .collect();
            let dctx = DistCtx::new(machine_for(grid));
            let backend = DistBackend::new(&dctx);
            let ys: Vec<DistDenseVec<f64>> = backend.spmv(&da, &xs, &ring).unwrap();
            assert!(backend.take_report().total() > 0.0);
            for (s, x) in xs.iter().enumerate() {
                let sctx = DistCtx::new(machine_for(grid));
                let (y, _) = spmv_dist(&da, x, &ring, &sctx).unwrap();
                let got = ys[s].to_global();
                let want = y.to_global();
                for j in 0..n {
                    assert_eq!(got[j], want[j], "grid {pr}x{pc} col {s} entry {j}");
                }
            }
            // One column through the backend trait — a batch of one — is
            // `spmv_dist` on every comm event and in its report.
            let ledger = |run: &dyn Fn(&DistCtx) -> SimReport| {
                let dctx = DistCtx::new(machine_for(grid));
                dctx.comm.record_history();
                let report = run(&dctx);
                (dctx.comm.history(), report)
            };
            let one = &xs[..1];
            let solo = ledger(&|d| spmv_dist::<_, _, f64, _, _>(&da, &one[0], &ring, d).unwrap().1);
            let through_trait = ledger(&|d| {
                let backend = DistBackend::new(d);
                let _: Vec<DistDenseVec<f64>> = backend.spmv(&da, one, &ring).unwrap();
                backend.take_report()
            });
            assert!(p == 1 || !solo.0.is_empty(), "grid {pr}x{pc}: the ledger logged nothing");
            assert_eq!(through_trait, solo, "grid {pr}x{pc}: k = 1 through the trait");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        // n = 3 on six locales: more locales than rows, so some blocks
        // are empty
        for (n, grid) in [(100, ProcGrid::new(2, 2)), (3, ProcGrid::new(2, 3))] {
            let a = gen::erdos_renyi(n, 2, 251);
            let da = DistCsrMatrix::from_global(&a, grid);
            for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                let dctx = DistCtx::new(machine_for(grid));
                let backend = DistBackend::with_strategy(&dctx, strategy);
                let opts = SpMSpVOpts::default();
                let out = backend.spmspv_first_visitor(&da, &[], Some(&[]), opts).unwrap();
                assert!(out.is_empty(), "n = {n} {strategy:?}");
                let ring = semirings::plus_times_f64();
                let ys: Vec<DistSparseVec<f64>> =
                    backend.spmspv_semiring(&da, &[], &ring, None, opts).unwrap();
                assert!(ys.is_empty(), "n = {n} {strategy:?}");
                let ys: Vec<DistDenseVec<f64>> = backend.spmv(&da, &[], &ring).unwrap();
                assert!(ys.is_empty(), "n = {n} {strategy:?}");
            }
        }
    }

    #[test]
    fn shape_validation() {
        let a = gen::erdos_renyi(100, 4, 261);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(machine_for(grid));
        let backend = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
        let m = DistDenseVec::filled(100, false, 4);
        let masks = [MaskSpec::complement(&m)];
        let push = |xs: &[DistSparseVec<usize>], masks: &[MaskSpec<'_, DistDenseVec<bool>>]| {
            backend.spmspv_first_visitor(&da, xs, Some(masks), SpMSpVOpts::default())
        };
        assert!(push(&[frontier(100, &[0], |_| 0, 4)], &masks).is_ok());
        // wrong capacity
        assert!(push(&[frontier(99, &[0], |_| 0, 4)], &masks).is_err());
        // mask count mismatch
        assert!(push(&[frontier(100, &[0], |_| 0, 4)], &[]).is_err());
        // wrong locale count
        assert!(push(&[frontier(100, &[0], |_| 0, 2)], &masks).is_err());
    }

    #[test]
    fn dist_backend_accumulates_reports_across_ops() {
        let a = gen::erdos_renyi(200, 5, 411);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
        let ones: DistCsrMatrix<u64> = b.mat_map(&da, &|_, _, _| 1u64).unwrap();
        let deg = b.reduce_rows(&ones, &Plus).unwrap();
        assert_eq!(deg.len(), 200);
        let structural = b.mat_row_degrees(&da).unwrap();
        assert!(structural.iter().zip(&deg).all(|(&s, &d)| s as u64 == d));
        b.allreduce_scalar("allreduce").unwrap();
        let report = b.take_report();
        assert!(report.total() > 0.0);
        assert!(report.phase("allreduce") > 0.0, "allreduce must be priced");
        // drained: a second take is empty
        assert_eq!(b.take_report().total(), 0.0);
    }

    #[test]
    fn sparse_to_bitmap_fills_each_segment_from_its_own_shard() {
        // n < locales leaves some blocks empty; n = 0 leaves all of them.
        for (n, p) in [(0, 3), (3, 8), (10, 4), (97, 6)] {
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let b = DistBackend::new(&dctx);
            let x = gen::random_sparse_vec(n, n / 3, 431 + n as u64);
            let dx = DistSparseVec::from_global(&x, p);
            let global = DenseVec::from_fn(n, |i| x.get(i).is_some());
            let want = DistDenseVec::from_global(&global, p);
            assert_eq!(b.sparse_to_bitmap(&dx).unwrap(), want, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn dense_set_pokes_the_owning_segment() {
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let b = DistBackend::new(&dctx);
        let mut v = b.dense_filled(10, 0i64);
        b.dense_set(&mut v, 9, 7);
        b.dense_set(&mut v, 0, -1);
        let g = b.dense_to_vec(v);
        assert_eq!(g[9], 7);
        assert_eq!(g[0], -1);
        assert_eq!(g[1..9].iter().sum::<i64>(), 0);
    }
}
