//! Distributed `select` and coordinate-aware `map` — purely local ops
//! (SPMD "version 2" by construction, like [`crate::ops::apply`]'s matrix
//! Apply): each locale rewrites its own block, no communication.
//!
//! Predicates and map functions receive **global** coordinates; the block
//! offsets are translated before the callback so algorithm code never sees
//! the partition.

use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use gblas_core::container::CsrMatrix;
use gblas_core::error::Result;
use gblas_sim::SimReport;

/// Phase name for both ops.
pub const PHASE: &str = "select";

/// Keep the entries of `a` where `pred(global_row, global_col, v)` holds.
pub fn select_mat_dist<T: Copy + Send + Sync>(
    a: &DistCsrMatrix<T>,
    pred: &(impl Fn(usize, usize, T) -> bool + Sync),
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<T>, SimReport)> {
    let mut trace = dctx.op("select_mat_dist");
    let grid = a.grid();
    let p = grid.locales();
    let mut blocks: Vec<CsrMatrix<T>> = Vec::with_capacity(p);
    let mut profiles = Vec::with_capacity(p);
    for out in dctx.for_each_locale(|l| {
        if l >= p {
            return Ok(None); // 3-D replication layer: no block here
        }
        let ctx = dctx.locale_ctx_for(l);
        let r0 = a.row_range(l).start;
        let c0 = a.col_range(l).start;
        let kept = gblas_core::ops::select::select_mat(
            a.block(l),
            &|i, j, v| pred(i + r0, j + c0, v),
            &ctx,
        );
        Ok(Some((kept, ctx.take_profile())))
    })? {
        let Some((block, profile)) = out else { continue };
        blocks.push(block);
        profiles.push(profile);
    }
    let out = DistCsrMatrix::from_blocks(a.nrows(), a.ncols(), grid, blocks)?;
    trace.nnz(a.nnz() as u64);
    trace.spawn(PHASE, 1);
    trace.compute_as(PHASE, gblas_core::ops::select::PHASE, &profiles);
    Ok((out, trace.finish()))
}

/// `B[i,j] = f(global_row, global_col, A[i,j])` over stored entries,
/// possibly changing the value type. Structure is preserved per block.
pub fn map_mat_dist<T: Copy + Send + Sync, U: Copy + Send + Sync>(
    a: &DistCsrMatrix<T>,
    f: &(impl Fn(usize, usize, T) -> U + Sync),
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<U>, SimReport)> {
    let mut trace = dctx.op("map_mat_dist");
    let grid = a.grid();
    let p = grid.locales();
    let mut blocks: Vec<CsrMatrix<U>> = Vec::with_capacity(p);
    let mut profiles = Vec::with_capacity(p);
    for out in dctx.for_each_locale(|l| {
        if l >= p {
            return Ok(None); // 3-D replication layer: no block here
        }
        let ctx = dctx.locale_ctx_for(l);
        let r0 = a.row_range(l).start;
        let c0 = a.col_range(l).start;
        let mapped =
            gblas_core::ops::apply::map_mat(a.block(l), &|i, j, v| f(i + r0, j + c0, v), &ctx);
        Ok(Some((mapped, ctx.take_profile())))
    })? {
        let Some((block, profile)) = out else { continue };
        blocks.push(block);
        profiles.push(profile);
    }
    let out = DistCsrMatrix::from_blocks(a.nrows(), a.ncols(), grid, blocks)?;
    trace.nnz(a.nnz() as u64);
    trace.spawn(PHASE, 1);
    trace.compute_as(PHASE, gblas_core::ops::apply::PHASE, &profiles);
    Ok((out, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn select_uses_global_coordinates() {
        let a = gen::erdos_renyi_symmetric(90, 5, 331);
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::select::select_mat(&a, &|i, j, _| j < i, &ctx);
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dl, report) = select_mat_dist(&da, &|i, j, _| j < i, &dctx).unwrap();
            assert_eq!(dl.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
            assert_eq!(dctx.comm.totals(), (0, 0, 0), "select must not communicate");
        }
    }

    #[test]
    fn map_uses_global_coordinates_and_changes_type() {
        let a = gen::erdos_renyi(80, 4, 332);
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::apply::map_mat(&a, &|i, j, _| (i * 1000 + j) as u64, &ctx);
        for (pr, pc) in [(1, 1), (3, 2)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dm, _) = map_mat_dist(&da, &|i, j, _| (i * 1000 + j) as u64, &dctx).unwrap();
            assert_eq!(dm.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert_eq!(dctx.comm.totals(), (0, 0, 0), "map must not communicate");
        }
    }
}
