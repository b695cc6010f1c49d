//! Distributed SpMV: `y = x A` with dense vectors on the 2-D grid, for
//! one column or `k` at once.
//!
//! The dense counterpart of the distributed SpMSpV, with the communication
//! pattern the paper recommends (§IV): *bulk* transfers throughout —
//! dense segments are contiguous, so the gather along the processor row
//! and the partial-result combine down each processor column are one
//! block message each. Comparing this op's comm time against the
//! fine-grained SpMSpV quantifies how much Listing 8 leaves on the table.
//!
//! Phases: `gather` (row-block segments of `x`), `local` (block
//! multiply), `combine` (tree-combine the `pr` partial vectors down each
//! processor column, then place output blocks with their owners). A block
//! multiply is `spmv_col`, whose accumulators are sized by the block's
//! entries (one per `6·ncols`), never by `threads_per_locale`; the leader
//! folds the `pr` partials in grid-row order. So a result's bits depend on
//! the matrix and on `pr` — never on thread counts or the executor, and on
//! `pc` only through a block dense enough to take a second accumulator.
//!
//! The four steps — gather, multiply, combine, place — exist once, in one
//! body (`spmv_columns`), for any number `k ≥ 0` of dense columns: every
//! message carries all `k` columns (1× the messages, k× the payload) and
//! each column's values accumulate in the same order whatever `k` is. Both
//! entry points run it under the one op name `spmv_dist` — [`spmv_dist`] at
//! `k = 1` and the backend trait's SpMV at its caller's width — from the one
//! gather plan cached under (`spmv_gather`, `Dense`), so a single column is
//! a batch of one, priced as one. A message with no payload — an empty peer
//! segment or column range, as on grids with more locales than vector
//! entries — is never sent, for every `k`.

use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use crate::ops::spmspv::{only, row_gather_schedule};
use crate::sched::FrontierClass;
use crate::vec::DistDenseVec;
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::error::{check_dims, Result};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase: gather dense x segments along the processor row.
pub const PHASE_GATHER: &str = "gather";
/// Phase: local block multiply.
pub const PHASE_LOCAL: &str = "local";
/// Phase: combine partials down processor columns.
pub const PHASE_COMBINE: &str = "combine";

/// The one dense SpMV every entry point runs:
/// `ys[s][j] = ⊕_i xs[s][i] ⊗ A[i,j]` for `k = xs.len() ≥ 0`
/// block-distributed dense columns at once — the `spmv_dist` op for any
/// `k`, which [`spmv_dist`] runs at `k = 1` and the backend trait's SpMV at
/// its caller's width. The op span carries the shape, the schedule outcome
/// and the matrix nnz. The gather runs from the row-aligned plan cached
/// under (`spmv_gather`, `Dense`): dense SpMV gathers whole row-peer
/// segments, whatever `k` is, so PageRank's power iteration and a batch of
/// any width over the same matrix replay one plan.
pub(crate) fn spmv_columns<A, B, C, AddM, MulOp>(
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
    let mut op = dctx.op("spmv_dist"); // the wall clock starts with the op
    let grid = a.grid();
    let p = grid.locales();
    for x in xs {
        check_dims("x length vs matrix rows", a.nrows(), x.len())?;
        check_dims("x locales vs grid locales", p, x.locales())?;
    }
    check_dims("machine locales vs grid locales", p, dctx.locales())?;
    let (plan, sched) = row_gather_schedule(a, "spmv_gather", FrontierClass::Dense, dctx);
    let row_peers = &plan.gather().row_peers;
    let k = xs.len() as u64;
    let n = a.ncols();
    let a_bytes = std::mem::size_of::<A>() as u64;
    let c_bytes = std::mem::size_of::<C>() as u64;
    let x_dist = crate::grid::BlockDist::new(a.nrows(), p);

    // ---- Superstep 1: gather + local multiply, one task per locale. One
    // bulk message per remote peer segment carries all k columns; each
    // column then runs the shared-memory kernel on its own, leaving — per
    // locale, per column — a partial over the locale's column range.
    let mut gather: Vec<Profile> = Vec::with_capacity(p);
    let mut local: Vec<Profile> = Vec::with_capacity(p);
    let mut partials: Vec<Vec<Vec<C>>> = Vec::with_capacity(p);
    for (gather_profile, local_profile, columns) in dctx.for_each_locale(|l| {
        let row_range = a.row_range(l);
        let gctx = dctx.locale_ctx_for(l);
        let mut lx: Vec<Vec<A>> = xs.iter().map(|_| Vec::with_capacity(row_range.len())).collect();
        for &src in &row_peers[l] {
            let payload = k * x_dist.size(src) as u64 * a_bytes;
            if src != l && payload > 0 {
                dctx.comm.bulk(PHASE_GATHER, l, src, 1, payload)?;
            }
            for (column, x) in lx.iter_mut().zip(xs) {
                column.extend_from_slice(x.segment(src));
            }
        }
        let moved: u64 = lx.iter().map(|v| v.len() as u64).sum();
        gctx.record(PHASE_GATHER, |c| {
            c.elems += moved;
            c.bytes_moved += moved * a_bytes;
        });
        // Local multiply: partial[j_local] over the block's column range.
        let lctx = dctx.locale_ctx_for(l);
        let block = a.block(l);
        let width = a.col_range(l).len();
        let mut columns: Vec<Vec<C>> = Vec::with_capacity(lx.len());
        for column in lx {
            let lx_dense = gblas_core::container::DenseVec::from_vec(column);
            columns.push(if row_range.is_empty() || width == 0 {
                vec![ring.zero::<C>(); width]
            } else {
                gblas_core::ops::spmv::spmv_col(block, &lx_dense, ring, &lctx)?.into_vec()
            });
        }
        let mut folded = Profile::default();
        for (_, counters) in lctx.take_profile().iter() {
            folded.counters_mut(PHASE_LOCAL).merge(counters);
        }
        Ok((gctx.take_profile(), folded, columns))
    })? {
        gather.push(gather_profile);
        local.push(local_profile);
        partials.push(columns);
    }

    // ---- Superstep 2: combine partials down each processor column. Each
    // non-leader logs its own upload of all k columns (single writer per
    // source locale) and returns no accumulators; the column leader (grid
    // row 0) accumulates every column in grid-column order.
    let (combine, accs): (Vec<Profile>, Vec<Vec<Vec<C>>>) = dctx
        .for_each_locale(|l| {
            let (_, c) = grid.coords(l);
            let leader = grid.locale(0, c);
            let width = a.col_range(leader).len();
            if l != leader {
                let payload = k * width as u64 * c_bytes;
                if payload > 0 {
                    dctx.comm.bulk(PHASE_COMBINE, l, leader, 1, payload)?;
                }
                return Ok((Profile::default(), Vec::new()));
            }
            let acc_k: Vec<Vec<C>> = (0..xs.len())
                .map(|s| {
                    let mut acc: Vec<C> = vec![ring.zero::<C>(); width];
                    for src in grid.col_locales(c) {
                        for (slot, &v) in acc.iter_mut().zip(&partials[src][s]) {
                            *slot = ring.accumulate(*slot, v);
                        }
                    }
                    acc
                })
                .collect();
            let mut profile = Profile::default();
            let elems = (width * grid.pr()) as u64 * k;
            profile.counters_mut(PHASE_COMBINE).elems += elems;
            profile.counters_mut(PHASE_COMBINE).flops += elems;
            Ok((profile, acc_k))
        })?
        .into_iter()
        .unzip();

    // ---- The leaders hand output blocks to their owners (driver-side:
    // placement touches every segment, and the serial walk keeps the
    // leaders' send order deterministic).
    let out_dist = crate::grid::BlockDist::new(n, p);
    let mut segments: Vec<Vec<Vec<C>>> = xs
        .iter()
        .map(|_| (0..p).map(|b| vec![ring.zero::<C>(); out_dist.size(b)]).collect())
        .collect();
    for c in 0..grid.pc() {
        let leader = grid.locale(0, c);
        let col_range = a.col_range(leader);
        if col_range.is_empty() {
            continue;
        }
        // One copy per column, and one bulk message to a remote owner, for
        // each output block the leader's combined slice overlaps.
        for owner in out_dist.owner(col_range.start)..=out_dist.owner(col_range.end - 1) {
            let block = out_dist.range(owner);
            let lo = block.start.max(col_range.start);
            let hi = block.end.min(col_range.end);
            for (segs, acc) in segments.iter_mut().zip(&accs[leader]) {
                segs[owner][lo - block.start..hi - block.start]
                    .copy_from_slice(&acc[lo - col_range.start..hi - col_range.start]);
            }
            let payload = k * (hi - lo) as u64 * c_bytes;
            if owner != leader && payload > 0 {
                dctx.comm.bulk(PHASE_COMBINE, leader, owner, 1, payload)?;
            }
        }
    }

    let ys = segments
        .into_iter()
        .map(|segs| DistDenseVec::from_segments(n, segs))
        .collect::<Result<Vec<_>>>()?;
    op.attr("nrows", a.nrows()).attr("ncols", a.ncols()).sched(sched).nnz(a.nnz() as u64);
    op.spawn(PHASE_GATHER, 1);
    op.compute(PHASE_GATHER, &gather);
    op.compute(PHASE_LOCAL, &local);
    op.compute(PHASE_COMBINE, &combine);
    Ok((ys, op.finish()))
}

/// `y[j] = ⊕_i x[i] ⊗ A[i,j]` with block-distributed dense `x`, dense
/// output distributed like `x`.
pub fn spmv_dist<A, B, C, AddM, MulOp>(
    a: &DistCsrMatrix<B>,
    x: &DistDenseVec<A>,
    ring: &Semiring<AddM, MulOp>,
    dctx: &DistCtx,
) -> Result<(DistDenseVec<C>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let (ys, report) = spmv_columns(a, std::slice::from_ref(x), ring, dctx)?;
    Ok((only(ys)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::algebra::semirings;
    use gblas_core::container::DenseVec;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_shared_memory_at_every_grid() {
        // n = 3 is the degenerate shape: fewer entries than locales on
        // every multi-row grid, so some peer segments and column ranges
        // are empty — and must cost no message.
        for n in [300, 3] {
            let a = gen::erdos_renyi(n, 6.min(n - 1), 401);
            let x = DenseVec::from_fn(n, |i| 1.0 + (i % 5) as f64);
            let ctx = gblas_core::par::ExecCtx::serial();
            let expect: DenseVec<f64> =
                gblas_core::ops::spmv::spmv_col(&a, &x, &semirings::plus_times_f64(), &ctx)
                    .unwrap();
            for (pr, pc) in [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 3)] {
                let grid = ProcGrid::new(pr, pc);
                let p = grid.locales();
                let da = DistCsrMatrix::from_global(&a, grid);
                let dx = DistDenseVec::from_global(&x, p);
                let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
                dctx.comm.record_history();
                let (y, report) = spmv_dist(&da, &dx, &semirings::plus_times_f64(), &dctx).unwrap();
                let yg = y.to_global();
                for j in 0..n {
                    assert!(
                        (yg[j] - expect[j]).abs() < 1e-9,
                        "n={n} grid {pr}x{pc} col {j}: {} vs {}",
                        yg[j],
                        expect[j]
                    );
                }
                assert!(report.total() > 0.0);
                for e in dctx.comm.history() {
                    assert!(e.bytes > 0, "n={n} grid {pr}x{pc}: zero-byte message {e:?}");
                }
            }
        }
    }

    #[test]
    fn uses_only_bulk_communication() {
        let a = gen::erdos_renyi(200, 4, 402);
        let x = DenseVec::filled(200, 1.0);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistDenseVec::from_global(&x, 4);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let _ = spmv_dist(&da, &dx, &semirings::plus_times_f64(), &dctx).unwrap();
        let (fine, bulk, _) = dctx.comm.totals();
        assert_eq!(fine, 0, "dense SpMV must be all-bulk");
        assert!(bulk > 0);
    }

    #[test]
    fn bulk_spmv_comm_beats_fine_grained_spmspv_comm() {
        // §IV quantified: same matrix, comparable data volume, orders of
        // magnitude less communication time.
        let n = 5000;
        let a = gen::erdos_renyi(n, 8, 403);
        let grid = ProcGrid::new(4, 4);
        let da = DistCsrMatrix::from_global(&a, grid);

        let xd = DenseVec::filled(n, 1.0);
        let dxd = DistDenseVec::from_global(&xd, 16);
        let d1 = DistCtx::new(MachineConfig::edison_cluster(16, 24));
        let (_, dense_rep) = spmv_dist(&da, &dxd, &semirings::plus_times_f64(), &d1).unwrap();

        let xs = gen::random_sparse_vec(n, n / 2, 404);
        let dxs = crate::vec::DistSparseVec::from_global(&xs, 16);
        let d2 = DistCtx::new(MachineConfig::edison_cluster(16, 24));
        let (_, sparse_rep) = crate::ops::spmspv::spmspv_dist(&da, &dxs, &d2).unwrap();

        let dense_comm = dense_rep.phase(PHASE_GATHER) + dense_rep.phase(PHASE_COMBINE);
        let sparse_comm = sparse_rep.phase("gather") + sparse_rep.phase("scatter");
        assert!(sparse_comm > 10.0 * dense_comm, "fine-grained {sparse_comm} vs bulk {dense_comm}");
    }

    #[test]
    fn dimension_and_locale_checks() {
        let a = gen::erdos_renyi(100, 4, 405);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let wrong_len = DistDenseVec::filled(99, 1.0, 4);
        assert!(spmv_dist::<_, _, f64, _, _>(&da, &wrong_len, &semirings::plus_times_f64(), &dctx)
            .is_err());
        let wrong_p = DistDenseVec::filled(100, 1.0, 2);
        assert!(spmv_dist::<_, _, f64, _, _>(&da, &wrong_p, &semirings::plus_times_f64(), &dctx)
            .is_err());
    }
}
