//! Distributed reductions: local fold + simulated all-reduce.
//!
//! §IV: "MPI provides functions for a number of team collectives. Support
//! for these operations is expected to improve the productivity and
//! performance of graph algorithms." This module supplies the collective
//! the library actually needs — a commutative-monoid all-reduce — with a
//! binomial-tree cost model (`⌈log₂ p⌉` rounds of one small bulk message
//! per participating locale).

use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use gblas_core::algebra::{ComMonoid, Monoid};
use gblas_core::container::CsrMatrix;
use gblas_core::error::Result;
use gblas_core::par::{ExecCtx, Profile};
use gblas_sim::SimReport;

/// Phase for the local fold.
pub const PHASE_LOCAL: &str = "reduce-local";
/// Phase for the all-reduce combine.
pub const PHASE_COMBINE: &str = "reduce-combine";

/// Row-wise reduction of a distributed matrix: `y[i] = ⊕_j A[i,j]`,
/// returned as a *global* driver-side vector (identity for empty rows).
///
/// Each locale folds its block's rows locally; then every off-leader
/// locale of a grid row ships its partial row-slice to the row leader
/// (column 0) in one bulk message, and the leader combines partials in
/// ascending column-block order — the same order a serial row fold visits
/// the values, so the result is exact whenever inserting extra identities
/// is (integers, min/max, and `+0.0` sums).
pub fn reduce_rows_dist<T, M>(
    a: &DistCsrMatrix<T>,
    monoid: &M,
    dctx: &DistCtx,
) -> Result<(Vec<T>, SimReport)>
where
    T: Copy + Send + Sync,
    M: Monoid<T>,
{
    let local = |block: &CsrMatrix<T>, ctx: &ExecCtx| {
        gblas_core::ops::reduce::reduce_rows(block, monoid, ctx).into_vec()
    };
    combine_row_partials(a, "reduce_rows_dist", local, |x, y| monoid.combine(x, y), dctx)
}

/// Stored entries per row of a distributed matrix, `deg[i] = nnz(A[i,:])`,
/// as a *global* driver-side vector — `reduce_rows_dist(map(a, 1), Plus)`
/// without the map: each locale reads its block's row-pointer differences
/// (`O(local rows)`, no value and no column id loaded) and the grid-row
/// leaders sum the slices exactly as [`reduce_rows_dist`] combines its
/// partials.
pub fn row_degrees_dist<T>(a: &DistCsrMatrix<T>, dctx: &DistCtx) -> Result<(Vec<usize>, SimReport)>
where
    T: Copy + Send + Sync,
{
    let local =
        |block: &CsrMatrix<T>, ctx: &ExecCtx| gblas_core::ops::reduce::row_degrees(block, ctx);
    combine_row_partials(a, "row_degrees_dist", local, |x, y| x + y, dctx)
}

/// The shape both row-wise ops share: `local` gives each block's per-row
/// partial (block rows are local coordinates), every off-leader locale of
/// a grid row ships its slice to the row leader (column 0) in one bulk
/// message — none when the slice is empty, as on grids with more locales
/// than rows — and the leader folds the slices with `combine` in ascending
/// column-block order.
fn combine_row_partials<T, U>(
    a: &DistCsrMatrix<T>,
    op_name: &str,
    local: impl Fn(&CsrMatrix<T>, &ExecCtx) -> Vec<U> + Sync,
    combine: impl Fn(U, U) -> U,
    dctx: &DistCtx,
) -> Result<(Vec<U>, SimReport)>
where
    T: Copy + Send + Sync,
    U: Copy + Send + Sync,
{
    let mut trace = dctx.op(op_name);
    let grid = a.grid();
    let elem_bytes = std::mem::size_of::<U>() as u64;
    let (partials, profiles): (Vec<Vec<U>>, Vec<Profile>) = dctx
        .for_each_locale(|l| {
            if l >= grid.locales() {
                // 3-D replication layer: no block, identity partial
                return Ok((Vec::new(), Profile::default()));
            }
            let ctx = dctx.locale_ctx_for(l);
            let partial = local(a.block(l), &ctx);
            let mut folded = Profile::default();
            let c = folded.counters_mut(PHASE_LOCAL);
            for (_, counters) in ctx.take_profile().iter() {
                c.merge(counters);
            }
            // Off-leader locales send their slice to the grid-row leader.
            let (r, c_coord) = grid.coords(l);
            if c_coord != 0 && !partial.is_empty() {
                let leader = grid.locale(r, 0);
                dctx.comm.bulk(PHASE_COMBINE, l, leader, 1, partial.len() as u64 * elem_bytes)?;
            }
            Ok((partial, folded))
        })?
        .into_iter()
        .unzip();
    // Leaders combine in ascending column-block order = serial fold order.
    let mut y: Vec<U> = Vec::with_capacity(a.nrows());
    for r in 0..grid.pr() {
        let leader = grid.locale(r, 0);
        let rows = y.len()..y.len() + partials[leader].len();
        debug_assert_eq!(rows.len(), a.row_range(leader).len());
        y.extend_from_slice(&partials[leader]);
        for c in 1..grid.pc() {
            for (acc, &v) in y[rows.clone()].iter_mut().zip(&partials[grid.locale(r, c)]) {
                *acc = combine(*acc, v);
            }
        }
    }
    trace.attr("nrows", a.nrows()).attr("ncols", a.ncols()).nnz(a.nnz() as u64);
    trace.spawn(PHASE_LOCAL, 1);
    trace.compute(PHASE_LOCAL, &profiles);
    Ok((y, trace.finish()))
}

/// Whole-matrix reduction of a distributed matrix with a commutative
/// monoid: local per-block folds, then a binomial-tree all-reduce —
/// `⌈log₂ p⌉` rounds of one small bulk message per participating locale.
/// Every locale ends with the result, and the report prices the combine.
pub fn reduce_mat_dist<T, M>(
    a: &DistCsrMatrix<T>,
    monoid: &M,
    dctx: &DistCtx,
) -> Result<(T, SimReport)>
where
    T: Copy + Send + Sync,
    M: ComMonoid<T>,
{
    let mut trace = dctx.op("reduce_mat_dist");
    let p = a.grid().locales();
    let (partials, profiles): (Vec<T>, Vec<Profile>) = dctx
        .for_each_locale(|l| {
            if l >= p {
                return Ok((monoid.identity(), Profile::default()));
            }
            let ctx = dctx.locale_ctx_for(l);
            let local = gblas_core::ops::reduce::reduce_mat(a.block(l), monoid, &ctx);
            let mut folded = Profile::default();
            let c = folded.counters_mut(PHASE_LOCAL);
            for (_, counters) in ctx.take_profile().iter() {
                c.merge(counters);
            }
            Ok((local, folded))
        })?
        .into_iter()
        .unzip();
    let mut value = monoid.identity();
    for &partial in &partials {
        value = monoid.combine(value, partial);
    }
    binomial_tree(dctx, PHASE_COMBINE, p, std::mem::size_of::<T>() as u64)?;
    trace.nnz(a.nnz() as u64);
    trace.spawn(PHASE_LOCAL, 1);
    trace.compute(PHASE_LOCAL, &profiles);
    Ok((value, trace.finish()))
}

/// Log a `⌈log₂ p⌉`-round binomial-tree combine under `phase`: in each
/// round every sender folds into its partner with one `bytes`-wide bulk
/// message.
pub(crate) fn binomial_tree(dctx: &DistCtx, phase: &str, p: usize, bytes: u64) -> Result<()> {
    let mut stride = 1usize;
    while stride < p {
        for l in (0..p).step_by(stride * 2).filter(|&l| l + stride < p) {
            dctx.comm.bulk(phase, l + stride, l, 1, bytes)?;
        }
        stride *= 2;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::algebra::{Max, Plus};
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_global_fold_at_every_locale_count() {
        let a = gen::erdos_renyi(400, 6, 71);
        let expect: f64 = a.values().iter().sum();
        let max = a.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in [1usize, 2, 5, 8, 16] {
            let grid = crate::grid::ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (sum, report) = reduce_mat_dist(&da, &Plus, &dctx).unwrap();
            assert!((sum - expect).abs() < 1e-9, "p={p}");
            assert!(report.total() > 0.0);
            assert_eq!(reduce_mat_dist(&da, &Max, &dctx).unwrap().0, max, "p={p}");
        }
    }

    #[test]
    fn tree_combine_messages_are_logarithmic() {
        let a = gen::erdos_renyi(400, 6, 73);
        let da = DistCsrMatrix::from_global(&a, crate::grid::ProcGrid::new(4, 4));
        let dctx = DistCtx::new(MachineConfig::edison_cluster(16, 24));
        let _ = reduce_mat_dist(&da, &Plus, &dctx).unwrap();
        let (_, bulk, _) = dctx.comm.totals();
        assert_eq!(bulk, 15, "p-1 messages in a binomial tree");
    }

    #[test]
    fn row_reduce_matches_shared_at_every_grid() {
        let a = gen::erdos_renyi(300, 6, 74);
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::reduce::reduce_rows(&a, &Plus, &ctx).as_slice().to_vec();
        for (pr, pc) in [(1, 1), (1, 4), (2, 2), (3, 2)] {
            let grid = crate::grid::ProcGrid::new(pr, pc);
            let da = crate::mat::DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (y, report) = reduce_rows_dist(&da, &Plus, &dctx).unwrap();
            assert_eq!(y.len(), 300, "grid {pr}x{pc}");
            for (got, want) in y.iter().zip(&expect) {
                assert!((got - want).abs() < 1e-9, "grid {pr}x{pc}");
            }
            assert!(report.total() > 0.0);
            // one combine message per off-leader locale, all bulk
            let (fine, bulk, _) = dctx.comm.totals();
            assert_eq!(fine, 0);
            assert_eq!(bulk as usize, pr * (pc - 1), "grid {pr}x{pc}");
        }
    }

    #[test]
    fn row_degrees_equal_the_reduced_ones_matrix_on_every_grid() {
        // n = 3 leaves locales without rows on every multi-row grid, and
        // n = 0 leaves all of them so: an empty slice costs no message.
        for n in [300usize, 3, 0] {
            let a = gen::erdos_renyi(n, 6.min(n.saturating_sub(1)), 76);
            for (pr, pc) in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (4, 4)] {
                let grid = crate::grid::ProcGrid::new(pr, pc);
                let da = crate::mat::DistCsrMatrix::from_global(&a, grid);
                let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
                let (ones, _) =
                    crate::ops::select::map_mat_dist(&da, &|_, _, _| 1usize, &dctx).unwrap();
                let (want, _) = reduce_rows_dist(&ones, &Plus, &dctx).unwrap();
                let reduce_msgs = dctx.comm.totals().1;
                dctx.comm.record_history();
                let (deg, report) = row_degrees_dist(&da, &dctx).unwrap();
                assert_eq!(deg, want, "n={n} grid {pr}x{pc}");
                assert_eq!(deg.len(), n);
                assert!(report.total() > 0.0);
                let history = dctx.comm.history();
                for e in &history {
                    assert!(e.bytes > 0, "n={n} grid {pr}x{pc}: zero-byte message {e:?}");
                }
                // the same combine as the reduce: one bulk message per
                // off-leader locale that holds rows
                assert_eq!(history.len() as u64, reduce_msgs, "n={n} grid {pr}x{pc}");
                let holders = (0..grid.locales()).filter(|&l| !da.row_range(l).is_empty());
                assert_eq!(history.len(), holders.filter(|&l| grid.coords(l).1 != 0).count());
            }
        }
    }

    #[test]
    fn mat_reduce_matches_shared() {
        let a = gen::erdos_renyi(200, 5, 75);
        let ctx = gblas_core::par::ExecCtx::serial();
        let ones = gblas_core::ops::apply::map_mat(&a, &|_, _, _| 1u64, &ctx);
        let expect = gblas_core::ops::reduce::reduce_mat(&ones, &Plus, &ctx);
        for (pr, pc) in [(1, 1), (2, 3), (2, 2)] {
            let grid = crate::grid::ProcGrid::new(pr, pc);
            let dones = crate::mat::DistCsrMatrix::from_global(&ones, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (total, report) = reduce_mat_dist(&dones, &Plus, &dctx).unwrap();
            assert_eq!(total, expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn empty_matrix_reduces_to_identity() {
        let a = gblas_core::container::CsrMatrix::<f64>::from_triplets(100, 100, &[]).unwrap();
        let da = DistCsrMatrix::from_global(&a, crate::grid::ProcGrid::new(2, 2));
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (sum, _) = reduce_mat_dist(&da, &Plus, &dctx).unwrap();
        assert_eq!(sum, 0.0);
    }
}
