//! Distributed transpose: `Aᵀ` on the 2-D grid.
//!
//! The 2-D block layout makes transposition a *structured* all-to-all:
//! locale `(r, c)` transposes its local block (a pure-local counting
//! sort) and ships it to locale `(c, r)` of the transposed grid — one
//! bulk message per off-diagonal block, `p - √p` messages total. This is
//! the cheapest possible communication pattern for the operation and a
//! building block for algorithms that need both `A` and `Aᵀ`
//! (betweenness' back-propagation, MCL's column normalisation,
//! symmetrizing a crawl, PageRank on the reverse graph).

use crate::exec::DistCtx;
use crate::grid::ProcGrid;
use crate::mat::DistCsrMatrix;
use gblas_core::error::{GblasError, Result};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase: local block transposes.
pub const PHASE_LOCAL: &str = "transpose-local";
/// Phase: the block exchange.
pub const PHASE_EXCHANGE: &str = "transpose-exchange";

/// Transpose a distributed matrix. The result lives on the transposed
/// grid (`pc × pr`); row/column partitions swap accordingly.
pub fn transpose_dist<T: Copy + Send + Sync>(
    a: &DistCsrMatrix<T>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<T>, SimReport)> {
    let mut trace = dctx.op("transpose_dist");
    let grid = a.grid();
    let p = grid.locales();
    // `>` not `!=`: under the 3-D SUMMA the machine holds extra
    // replication layers beyond the matrix's own subgrid.
    if p > dctx.locales() {
        return Err(GblasError::DimensionMismatch {
            expected: format!("machine with at least {p} locales"),
            actual: format!("machine with {} locales", dctx.locales()),
        });
    }
    let new_grid = ProcGrid::new(grid.pc(), grid.pr());
    // Superstep: each locale transposes its block locally and logs the
    // bulk send to its mirror cell; the driver then places the blocks.
    let elem_bytes = (2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()) as u64;
    let mut profiles: Vec<Profile> = Vec::with_capacity(p);
    let mut new_blocks: Vec<Option<gblas_core::container::CsrMatrix<T>>> =
        (0..p).map(|_| None).collect();
    for out in dctx.for_each_locale(|l| {
        if l >= p {
            // 3-D SUMMA machines carry replication layers beyond the
            // matrix's subgrid; they hold no block of this matrix.
            return Ok(None);
        }
        let (r, c) = grid.coords(l);
        let lctx = dctx.locale_ctx_for(l);
        let t = gblas_core::ops::transpose::transpose(a.block(l), &lctx)?;
        let mut folded = Profile::default();
        let counters = folded.counters_mut(PHASE_LOCAL);
        for (_, cs) in lctx.take_profile().iter() {
            counters.merge(cs);
        }
        let dest = new_grid.locale(c, r);
        if dest != l {
            dctx.comm.bulk(PHASE_EXCHANGE, l, dest, 1, t.nnz() as u64 * elem_bytes)?;
        }
        Ok(Some((folded, dest, t)))
    })? {
        let Some((profile, dest, t)) = out else { continue };
        profiles.push(profile);
        new_blocks[dest] = Some(t);
    }
    let blocks: Vec<_> = new_blocks
        .into_iter()
        .map(|b| b.expect("mirror placement covers every grid cell"))
        .collect();
    let result = DistCsrMatrix::from_blocks(a.ncols(), a.nrows(), new_grid, blocks)?;
    trace.attr("nrows", a.nrows()).attr("ncols", a.ncols()).nnz(a.nnz() as u64);
    trace.spawn(PHASE_LOCAL, 1);
    trace.compute(PHASE_LOCAL, &profiles);
    Ok((result, trace.finish()))
}

/// Phase: redistribution all-to-all exchange.
pub const PHASE_REGRID: &str = "regrid";

/// Redistribute `a` onto `grid`, pricing the all-to-all block shuffle:
/// each source locale scans its block, and every (source, destination)
/// pair with overlapping entries costs one bulk message carrying the
/// overlap as triplets. Needed after a rectangular-grid transpose, whose
/// result lives on the flipped `pc×pr` grid.
pub fn redistribute_dist<T: Copy + Send + Sync>(
    a: &DistCsrMatrix<T>,
    grid: ProcGrid,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<T>, SimReport)> {
    let mut trace = dctx.op("redistribute_dist");
    if a.grid() == grid {
        return Ok((a.clone(), SimReport::default()));
    }
    let p_src = a.grid().locales();
    let row_dist = crate::grid::BlockDist::new(a.nrows(), grid.pr());
    let col_dist = crate::grid::BlockDist::new(a.ncols(), grid.pc());
    // Driver-side overlap counts: deterministic integers, so the comm
    // pattern is identical on every executor.
    let mut counts = vec![vec![0u64; grid.locales()]; p_src];
    for (l, row) in counts.iter_mut().enumerate() {
        let r0 = a.row_range(l).start;
        let c0 = a.col_range(l).start;
        for (i, j, _) in a.block(l).iter() {
            let dest = grid.locale(row_dist.owner(i + r0), col_dist.owner(j + c0));
            row[dest] += 1;
        }
    }
    let elem_bytes = (2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()) as u64;
    let mut profiles: Vec<Profile> = Vec::with_capacity(p_src);
    for folded in dctx.for_each_locale(|l| {
        let mut profile = Profile::default();
        if l >= p_src {
            return Ok(profile);
        }
        // the scan that routes each entry to its destination block
        profile.counters_mut(PHASE_REGRID).elems += a.block(l).nnz() as u64;
        for (dst, &cnt) in counts[l].iter().enumerate() {
            if cnt > 0 && dst != l {
                dctx.comm.bulk(PHASE_REGRID, l, dst, 1, cnt * elem_bytes)?;
            }
        }
        Ok(profile)
    })? {
        profiles.push(folded);
    }
    let out = DistCsrMatrix::from_global(&a.to_global()?, grid);
    trace
        .attr("from", format!("{}x{}", a.grid().pr(), a.grid().pc()))
        .attr("to", format!("{}x{}", grid.pr(), grid.pc()))
        .nnz(a.nnz() as u64);
    trace.spawn(PHASE_REGRID, 1);
    trace.compute(PHASE_REGRID, &profiles);
    Ok((out, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec::DistSparseVec;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_global_transpose_at_every_grid() {
        let a = gen::erdos_renyi(120, 5, 211);
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::transpose::transpose(&a, &ctx).unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 2), (1, 4)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (t, report) = transpose_dist(&da, &dctx).unwrap();
            assert_eq!(t.grid(), ProcGrid::new(pc, pr), "grid {pr}x{pc}");
            assert_eq!(t.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn exchange_is_one_bulk_message_per_offdiagonal_block() {
        let a = gen::erdos_renyi(80, 4, 212);
        let grid = ProcGrid::new(3, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(9, 24));
        let _ = transpose_dist(&da, &dctx).unwrap();
        let (fine, bulk, _) = dctx.comm.totals();
        assert_eq!(fine, 0);
        assert_eq!(bulk, 6, "9 blocks, 3 on the diagonal stay put");
    }

    #[test]
    fn double_transpose_round_trips_through_spmv() {
        // (Aᵀ)ᵀ == A functionally: verify by multiplying both against the
        // same vector.
        let a = gen::erdos_renyi(100, 5, 213);
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        let (t, _) = transpose_dist(&da, &dctx).unwrap();
        let dctx2 = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        let (tt, _) = transpose_dist(&t, &dctx2).unwrap();
        assert_eq!(tt.to_global().unwrap(), a);
        // and the transposed matrix multiplies correctly
        let x = gen::random_sparse_vec(100, 12, 214);
        let dx = DistSparseVec::from_global(&x, 6);
        let dctx3 = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        let (y, _) = crate::ops::spmspv::spmspv_dist(&t, &dx, &dctx3).unwrap();
        // y = x Aᵀ: reached set = rows of A adjacent to x's indices
        let mut expect: Vec<usize> = Vec::new();
        for i in 0..100 {
            let (cols, _) = a.row(i);
            if cols.iter().any(|j| x.get(*j).is_some()) {
                expect.push(i);
            }
        }
        assert_eq!(y.to_global().indices(), &expect[..]);
    }
}
