//! Distributed batched (multi-source) frontier expansion: one masked
//! SpGEMM sweep per traversal level instead of k SpMSpVs.
//!
//! The CombBLAS 2.0 observation: a level of k concurrent traversals
//! gathers, multiplies and scatters k sparse vectors over the *same*
//! 2-D matrix distribution, so the per-superstep communication fuses —
//! every locale pair exchanges **one** bulk message carrying all k
//! sources' payloads, paying the per-message latency α once instead of
//! k times. At serving batch sizes the α term dominates small frontiers'
//! traffic, which is where the simulated-QPS win of `gblas serve-bench`
//! comes from.
//!
//! The batch width is a parameter of the single-source pipeline, not a
//! second pipeline: this module owns the n×k container [`DistFrontier`]
//! (the backend trait does not name it: its pushes take a slice of
//! sparse vectors, which is what a frontier's rows are), and its two
//! expansions are `crate::ops::spmspv`'s one push body — the very code
//! `spmspv_dist` runs at `k = 1` — at `CommStrategy::Bulk` with the batch's
//! own op label; the dense product is [`crate::ops::spmv`]'s one dense
//! body under its own op label. A batch of one is a solo `Bulk` push, or
//! a solo `spmv_dist`, on every comm event and in its report: one schedule
//! key, one claim width, one merge for the whole batch.
//!
//! 1. **`gather`** — each locale pulls its row-block slices of all k
//!    frontiers from its processor-row peers, one combined bulk message
//!    per remote peer with something to send. The pattern is static —
//!    every row peer always needs the whole slice — so the cached plan
//!    replaces any request round.
//! 2. **`local`** (engine) — each locale runs the *shared-memory
//!    single-source kernel once per source* on its block. This is what
//!    makes the batched result bit-identical per source to k
//!    single-source runs: the per-source local multiply is literally the
//!    same code on the same operands in the same order. Per-source
//!    visited masks ([`crate::ops::spmspv::DistMask`]s) apply here, at
//!    the sender: a locale first copies their bits over its column range,
//!    one bulk message per remote owner for the whole batch.
//! 3. **`scatter`** (engine) — all k sources' claims travel in one bulk
//!    message per locale pair, grouped by source, each priced at its
//!    `(offset, value)` width; owners drain each source's claims in ascending
//!    sender order, so the kept parent is the minimum row (and the
//!    accumulation order is the serial one) — exactly as in the
//!    single-source distributed kernel.

use crate::exec::{DistCtx, OpTrace};
use crate::mat::DistCsrMatrix;
use crate::ops::spmspv::{push, Accumulate, CommStrategy::Bulk, DistMask, FirstVisitor};
use crate::ops::spmv::dense;
use crate::vec::{DistDenseVec, DistSparseVec};
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::SparseVec;
use gblas_core::error::{check_dims, Result};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_sim::SimReport;

/// Phase: combine partial dense products down processor columns (the
/// batched dense SpMM is the SpMV engine, phase names included).
pub use crate::ops::spmv::PHASE_COMBINE;

/// A batch of `k` block-distributed sparse frontiers over one capacity —
/// the distributed layout of the conceptual `n×k` frontier matrix. Every
/// per-source vector shares the same block distribution, so a batched
/// kernel's communication pattern is the single-source pattern with k×
/// the payload and 1× the messages.
#[derive(Debug, Clone)]
pub struct DistFrontier<T> {
    capacity: usize,
    locales: usize,
    rows: Vec<DistSparseVec<T>>,
}

impl<T: Copy + Send + Sync + 'static> DistFrontier<T> {
    /// Build from per-source entry lists (unsorted; duplicate indices
    /// within one source are an error), block-distributed over `locales`.
    pub fn from_entries(
        capacity: usize,
        entries: Vec<Vec<(usize, T)>>,
        locales: usize,
    ) -> Result<Self> {
        let rows = entries
            .into_iter()
            .map(|pairs| {
                let global = SparseVec::from_pairs(capacity, pairs)?;
                Ok(DistSparseVec::from_global(&global, locales))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DistFrontier { capacity, locales, rows })
    }

    /// Wrap `k` distributed sparse vectors sharing `capacity`/`locales`.
    pub fn new(capacity: usize, locales: usize, rows: Vec<DistSparseVec<T>>) -> Result<Self> {
        for r in &rows {
            check_dims("frontier row capacity", capacity, r.capacity())?;
            check_dims("frontier row locales", locales, r.locales())?;
        }
        Ok(DistFrontier { capacity, locales, rows })
    }

    /// A batch of `k` empty frontiers.
    pub fn empty(capacity: usize, k: usize, locales: usize) -> Self {
        DistFrontier {
            capacity,
            locales,
            rows: (0..k).map(|_| DistSparseVec::empty(capacity, locales)).collect(),
        }
    }

    /// Shared index-space size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locale count of the block distribution.
    pub fn locales(&self) -> usize {
        self.locales
    }

    /// Number of sources in the batch.
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Total stored entries across all sources.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.nnz()).sum()
    }

    /// Source `s`'s frontier.
    pub fn row(&self, s: usize) -> &DistSparseVec<T> {
        &self.rows[s]
    }

    /// All per-source frontiers, batch order.
    pub fn rows(&self) -> &[DistSparseVec<T>] {
        &self.rows
    }
}

/// Batched distributed first-visitor expansion under per-source visited
/// masks (complement semantics hardcoded: a claim is dropped where
/// `visited[s]` is `true`), aggregated (`Bulk`). Row `s` of the result is
/// bit-identical to the single-source distributed kernel on source `s`
/// alone — and therefore to the serial shared-memory kernel.
pub fn expand_dist_first_visitor<T: Copy + Send + Sync>(
    a: &DistCsrMatrix<T>,
    f: &DistFrontier<usize>,
    visited: &[DistDenseVec<bool>],
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(DistFrontier<usize>, SimReport)> {
    let masks: Vec<DistMask<'_>> = visited.iter().map(DistMask::complement).collect();
    let (name, masks) = ("expand_dist_first_visitor", Some(masks.as_slice()));
    let (rows, report) =
        push(name, a, f.rows(), &FirstVisitor, masks, Bulk, opts, dctx, batch_label(f.k()))?;
    Ok((DistFrontier { capacity: a.ncols(), locales: f.locales(), rows }, report))
}

/// Batched distributed semiring expansion (unmasked, `Bulk`): row `s` of
/// the result is `y_s[j] = ⊕_i f_s[i] ⊗ A[i,j]`, accumulated at the owner
/// in ascending sender order — the single-source kernel's exact
/// floating-point order, so each row matches its solo run bit for bit.
pub fn expand_dist_semiring<A, B, C, AddM, MulOp>(
    a: &DistCsrMatrix<B>,
    f: &DistFrontier<A>,
    ring: &Semiring<AddM, MulOp>,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(DistFrontier<C>, SimReport)>
where
    A: Copy + Send + Sync + 'static,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + PartialEq + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let (name, rule) = ("expand_dist_semiring", Accumulate(ring));
    let (rows, report) =
        push(name, a, f.rows(), &rule, None, Bulk, opts, dctx, batch_label(f.k()))?;
    Ok((DistFrontier { capacity: a.ncols(), locales: f.locales(), rows }, report))
}

/// The leading op attribute of a batched expansion: its width `k`.
fn batch_label(k: usize) -> impl FnOnce(&mut OpTrace<'_>) {
    move |op| {
        op.attr("k", k);
    }
}

/// Batched distributed dense SpMM: `ys[s] = xs[s] · A` for the whole
/// batch — [`crate::ops::spmv`]'s one dense body at `k = xs.len()`, with
/// the batch width as its leading op attribute. Every gather / combine /
/// placement message carries all k columns (1× the messages, k× the
/// payload), the gather replays the plan [`crate::ops::spmv::spmv_dist`]
/// caches, and `ys[s]` matches a solo `spmv_dist` run bit for bit.
pub fn spmm_dense_dist<A, B, C, AddM, MulOp>(
    a: &DistCsrMatrix<B>,
    xs: &[DistDenseVec<A>],
    ring: &Semiring<AddM, MulOp>,
    dctx: &DistCtx,
) -> Result<(Vec<DistDenseVec<C>>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    dense("spmm_dense_dist", a, xs, ring, dctx, |op| {
        op.attr("k", xs.len());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use crate::ops::spmspv::{spmspv_dist_with, CommStrategy, PHASE_GATHER};
    use gblas_core::algebra::semirings;
    use gblas_core::container::DenseVec;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    fn machine_for(grid: ProcGrid) -> MachineConfig {
        MachineConfig::edison_cluster(grid.locales(), 24)
    }

    #[test]
    fn batched_rows_match_single_source_dist_runs() {
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 211);
        let sources = [0usize, 7, 7, 390];
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let f =
                DistFrontier::from_entries(n, sources.iter().map(|&s| vec![(s, s)]).collect(), p)
                    .unwrap();
            let visited: Vec<DistDenseVec<bool>> = sources
                .iter()
                .map(|&s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i == s), p))
                .collect();
            let dctx = DistCtx::new(machine_for(grid));
            let (batched, report) =
                expand_dist_first_visitor(&da, &f, &visited, SpMSpVOpts::default(), &dctx).unwrap();
            assert!(report.total() > 0.0);
            for (s, &src) in sources.iter().enumerate() {
                let x = DistSparseVec::from_global(
                    &SparseVec::from_sorted(n, vec![src], vec![src]).unwrap(),
                    p,
                );
                let sctx = DistCtx::new(machine_for(grid));
                let (single, _) = spmspv_dist_with(
                    &da,
                    &x,
                    Some(DistMask::complement(&visited[s])),
                    CommStrategy::Bulk,
                    SpMSpVOpts::default(),
                    &sctx,
                )
                .unwrap();
                assert_eq!(
                    batched.row(s).to_global(),
                    single.to_global(),
                    "grid {pr}x{pc} slot {s}"
                );
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
            let entries = (0..k).map(|s| (s..n).step_by(23).map(|i| (i, i)).collect()).collect();
            let f = DistFrontier::from_entries(n, entries, p).unwrap();
            let visited: Vec<DistDenseVec<bool>> = (0..k)
                .map(|s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % (s + 2) == 0), p))
                .collect();
            let dctx = DistCtx::new(machine_for(grid));
            dctx.comm.record_history();
            let _ =
                expand_dist_first_visitor(&da, &f, &visited, SpMSpVOpts::default(), &dctx).unwrap();
            let history = dctx.comm.history();
            let sent = |l: usize| {
                let gathers = history.iter().filter(|e| e.phase == PHASE_GATHER && e.src == l);
                gathers.map(|e| e.msgs).sum::<u64>()
            };
            let got: Vec<u64> = (0..p).map(sent).collect();
            assert_eq!(got, expected, "k = {k}: gather messages per locale");
        }
    }

    #[test]
    fn batched_semiring_rows_match_single_source_dist_runs() {
        let n = 300;
        let a = gen::erdos_renyi(n, 5, 231);
        let ring = semirings::min_plus();
        for (pr, pc) in [(1, 1), (2, 2)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let f =
                DistFrontier::from_entries(n, vec![vec![(0, 0.0)], vec![(100, 0.0)]], p).unwrap();
            let dctx = DistCtx::new(machine_for(grid));
            let (batched, _) =
                expand_dist_semiring(&da, &f, &ring, SpMSpVOpts::default(), &dctx).unwrap();
            for (s, x) in f.rows().iter().enumerate() {
                let sctx = DistCtx::new(machine_for(grid));
                let (single, _) = crate::ops::spmspv::spmspv_dist_semiring(
                    &da,
                    x,
                    &ring,
                    CommStrategy::Bulk,
                    &sctx,
                )
                .unwrap();
                assert_eq!(
                    batched.row(s).to_global(),
                    single.to_global(),
                    "grid {pr}x{pc} slot {s}"
                );
            }
        }
    }

    #[test]
    fn a_batch_runs_the_callers_one_merge_and_names_it_once() {
        use crate::backend::DistBackend;
        use crate::ops::spmspv::PHASE_LOCAL;
        use gblas_core::backend::GblasBackend;
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
    fn spmm_columns_match_single_spmv_dist_runs() {
        use crate::backend::DistBackend;
        use gblas_core::backend::GblasBackend;
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
            let (ys, report) = spmm_dense_dist(&da, &xs, &ring, &dctx).unwrap();
            assert!(report.total() > 0.0);
            for (s, x) in xs.iter().enumerate() {
                let sctx = DistCtx::new(machine_for(grid));
                let (y, _) = crate::ops::spmv::spmv_dist(&da, x, &ring, &sctx).unwrap();
                let got = ys[s].to_global();
                let want = y.to_global();
                for j in 0..n {
                    assert_eq!(got[j], want[j], "grid {pr}x{pc} col {s} entry {j}");
                }
            }
            // One column through the backend trait, or through the batched
            // entry point, is `spmv_dist` on every comm event and in its
            // report.
            let ledger = |run: &dyn Fn(&DistCtx) -> SimReport| {
                let dctx = DistCtx::new(machine_for(grid));
                dctx.comm.record_history();
                let report = run(&dctx);
                (dctx.comm.history(), report)
            };
            let one = &xs[..1];
            let solo = ledger(&|d| {
                crate::ops::spmv::spmv_dist::<_, _, f64, _, _>(&da, &one[0], &ring, d).unwrap().1
            });
            let through_trait = ledger(&|d| {
                let backend = DistBackend::new(d);
                let _: Vec<DistDenseVec<f64>> = backend.spmv(&da, one, &ring).unwrap();
                backend.take_report()
            });
            let batch_of_one =
                ledger(&|d| spmm_dense_dist::<_, _, f64, _, _>(&da, one, &ring, d).unwrap().1);
            assert!(p == 1 || !solo.0.is_empty(), "grid {pr}x{pc}: the ledger logged nothing");
            assert_eq!(through_trait, solo, "grid {pr}x{pc}: k = 1 through the trait");
            assert_eq!(batch_of_one, solo, "grid {pr}x{pc}: k = 1 through spmm_dense_dist");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let a = gen::erdos_renyi(100, 4, 251);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(machine_for(grid));
        let f = DistFrontier::<usize>::empty(100, 0, 4);
        let (out, _) =
            expand_dist_first_visitor(&da, &f, &[], SpMSpVOpts::default(), &dctx).unwrap();
        assert_eq!(out.k(), 0);
        let (ys, _) =
            spmm_dense_dist::<f64, f64, f64, _, _>(&da, &[], &semirings::plus_times_f64(), &dctx)
                .unwrap();
        assert!(ys.is_empty());
    }

    #[test]
    fn shape_validation() {
        let a = gen::erdos_renyi(100, 4, 261);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(machine_for(grid));
        // wrong capacity
        let f = DistFrontier::from_entries(99, vec![vec![(0, 0usize)]], 4).unwrap();
        let m = vec![DistDenseVec::filled(100, false, 4)];
        assert!(expand_dist_first_visitor(&da, &f, &m, SpMSpVOpts::default(), &dctx).is_err());
        // mask count mismatch
        let f = DistFrontier::from_entries(100, vec![vec![(0, 0usize)]], 4).unwrap();
        assert!(expand_dist_first_visitor(&da, &f, &[], SpMSpVOpts::default(), &dctx).is_err());
        // wrong locale count
        let f2 = DistFrontier::from_entries(100, vec![vec![(0, 0usize)]], 2).unwrap();
        assert!(expand_dist_first_visitor(&da, &f2, &m, SpMSpVOpts::default(), &dctx).is_err());
    }
}
