//! Distributed pull-direction BFS kernel: the dense-frontier counterpart
//! of the fine-grained SpMSpV expansion, with the bulk communication the
//! paper recommends (§IV).
//!
//! The input matrix is the **transpose** `Aᵀ` on the 2-D grid, so each
//! block row holds destinations and each block column holds in-neighbor
//! sources. Per iteration every locale `(r, c)`:
//!
//! 1. **`gather`** — bulk-gathers the `visited` bits over its row range
//!    (one message per remote row-peer segment, exactly like the dense
//!    SpMV gather) and the `frontier` bits over its column range (one
//!    message per overlapping remote vector block);
//! 2. **`local`** — scans its block's rows in ascending destination
//!    order, skipping visited destinations and exiting each row at the
//!    first in-frontier in-neighbor — the early exit that makes pull win
//!    on heavy frontiers, priced through the recorded probe counters;
//! 3. **`scatter`** — sends its claims (one bulk message per owner) to
//!    the destinations' owning locales, which drain inboxes in ascending
//!    source-locale order. Ascending locale order within a grid row is
//!    ascending column-block order, so the first claim drained holds the
//!    globally **minimum** in-frontier in-neighbor: the same parent the
//!    push kernel's min-claim keeps.

use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use crate::ops::spmspv::{PHASE_GATHER, PHASE_LOCAL, PHASE_SCATTER};
use crate::sched::{FrontierClass, PlanData, PullPlan};
use crate::vec::{DistDenseVec, DistSparseVec};
use gblas_core::container::SparseVec;
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Bytes per scattered claim: `(destination, parent)`.
const CLAIM_BYTES: u64 = 2 * std::mem::size_of::<usize>() as u64;

/// Distributed [`gblas_core::ops::selection::pull_first_visitor`]:
/// `at = Aᵀ` block-distributed, `frontier`/`visited` bitmaps block-
/// distributed with the output. Returns the claimed `(dest, parent)`
/// sparse vector and the op's [`SimReport`].
pub fn pull_first_visitor_dist<T: Copy + Send + Sync>(
    at: &DistCsrMatrix<T>,
    frontier: &DistDenseVec<bool>,
    visited: &DistDenseVec<bool>,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    let mut trace = dctx.op("pull_first_visitor"); // the wall clock starts with the op
    check_dims("frontier length vs matrix cols", at.ncols(), frontier.len())?;
    check_dims("visited length vs matrix rows", at.nrows(), visited.len())?;
    let grid = at.grid();
    let p = grid.locales();
    for (what, got) in [("frontier", frontier.locales()), ("visited", visited.locales())] {
        if got != p {
            return Err(GblasError::DimensionMismatch {
                expected: format!("{p} locales"),
                actual: format!("{got} locales ({what})"),
            });
        }
    }
    if dctx.locales() != p {
        return Err(GblasError::DimensionMismatch {
            expected: format!("machine with {p} locales"),
            actual: format!("machine with {} locales", dctx.locales()),
        });
    }
    let n = at.nrows();
    let in_dist = frontier.dist();
    let out_dist = crate::grid::BlockDist::new(n, p);
    let nnz_f: usize = (0..p).map(|l| frontier.segment(l).iter().filter(|&&b| b).count()).sum();

    // ---- Inspect or replay the pull gather schedule: the visited
    // segments and frontier-block overlaps are pure distribution metadata,
    // so across BFS iterations the cached plan replays untouched.
    let (sched_plan, sched) = dctx.schedule(
        "pull_gather",
        FrontierClass::Bitmap,
        (grid.pr(), grid.pc()),
        at.generation(),
        0,
        || {
            PlanData::Pull(PullPlan::build(
                grid,
                |l| at.col_range(l),
                |src| visited.segment(src).len(),
                &in_dist,
            ))
        },
    );
    let plan = sched_plan.pull();

    // ---- Superstep 1: gather bitmaps, scan the local block, send claims.
    struct GatherLocal {
        gather: Profile,
        local: Profile,
        /// `(global dest, global parent)` in ascending dest order.
        claims: Vec<(usize, usize)>,
    }
    let gl: Vec<GatherLocal> = dctx.for_each_locale(|l| {
        let row_range = at.row_range(l);
        let col_range = at.col_range(l);
        let gctx = dctx.locale_ctx_for(l);
        // Visited bits over the row range: the row block is the union of
        // the row peers' vector blocks (the alignment property), so this
        // is one contiguous segment per peer — the plan's visited lines.
        let mut lvisited: Vec<bool> = Vec::with_capacity(row_range.len());
        for &(src, seg_len) in &plan.visited_segs[l] {
            if src != l && seg_len > 0 {
                dctx.comm.bulk(PHASE_GATHER, l, src, 1, seg_len as u64)?;
            }
            lvisited.extend_from_slice(visited.segment(src));
        }
        // Frontier bits over the column range: not block-aligned, so copy
        // the overlap from every owning vector block (one bulk message per
        // remote owner) — the plan's overlap windows.
        for &(owner, lo, hi) in plan.frontier_overlaps[l].iter().filter(|w| w.0 != l) {
            dctx.comm.bulk(PHASE_GATHER, l, owner, 1, (hi - lo) as u64)?;
        }
        let mut lfrontier: Vec<bool> = Vec::with_capacity(col_range.len());
        frontier.read_windows(&plan.frontier_overlaps[l], &mut lfrontier);
        gctx.record(PHASE_GATHER, |c| {
            c.elems += (lvisited.len() + lfrontier.len()) as u64;
            c.bytes_moved += (lvisited.len() + lfrontier.len()) as u64;
        });

        // Local destination scan with early exit, in ascending local row
        // (= ascending global destination) order.
        let block = at.block(l);
        let mut claims: Vec<(usize, usize)> = Vec::new();
        let mut local = Profile::default();
        let c = local.counters_mut(PHASE_LOCAL);
        for (j_local, &seen) in lvisited.iter().enumerate().take(row_range.len()) {
            c.rand_access += 1; // visited-bit probe
            if seen {
                continue;
            }
            let (cols, _) = block.row(j_local);
            for &u_local in cols {
                c.rand_access += 1; // frontier-bit probe
                if lfrontier[u_local] {
                    claims.push((row_range.start + j_local, col_range.start + u_local));
                    c.elems += 1;
                    break; // first hit = block-minimum in-neighbor
                }
            }
        }
        // Send side of the scatter: claims are dest-sorted, so each
        // owner's slice is contiguous — one bulk message per owner.
        let mut i = 0;
        while i < claims.len() {
            let owner = out_dist.owner(claims[i].0);
            let mut j = i;
            while j < claims.len() && out_dist.owner(claims[j].0) == owner {
                j += 1;
            }
            if owner != l {
                dctx.comm.bulk(PHASE_SCATTER, l, owner, 1, (j - i) as u64 * CLAIM_BYTES)?;
            }
            i = j;
        }
        let mut gather = gctx.take_profile();
        gather.counters_mut(PHASE_GATHER); // ensure the phase exists even when empty
        Ok(GatherLocal { gather, local, claims })
    })?;
    let gather_profiles: Vec<Profile> = gl.iter().map(|g| g.gather.clone()).collect();
    let local_profiles: Vec<Profile> = gl.iter().map(|g| g.local.clone()).collect();
    let claims: Vec<Vec<(usize, usize)>> = gl.into_iter().map(|g| g.claims).collect();

    // ---- Superstep 2: owners drain their inboxes in ascending source-
    // locale order and keep the first claim per destination. Within one
    // grid row, ascending locale order is ascending column-block order,
    // so the surviving parent is the global minimum in-frontier
    // in-neighbor — push's answer.
    let (scatter_profiles, shards): (Vec<Profile>, Vec<SparseVec<usize>>) = dctx
        .for_each_locale(|o| {
            let range = out_dist.range(o);
            let mut isthere = vec![false; range.len()];
            let mut value = vec![0usize; range.len()];
            let mut profile = Profile::default();
            let c = profile.counters_mut(PHASE_SCATTER);
            for src_claims in claims.iter() {
                for &(j, u) in src_claims {
                    if j < range.start || j >= range.end {
                        continue;
                    }
                    let off = j - range.start;
                    c.rand_access += 1;
                    if !isthere[off] {
                        isthere[off] = true;
                        value[off] = u;
                        c.elems += 1;
                    }
                }
            }
            let mut inds = Vec::new();
            let mut vals = Vec::new();
            for off in 0..range.len() {
                if isthere[off] {
                    inds.push(range.start + off);
                    vals.push(value[off]);
                }
            }
            Ok((profile, SparseVec::from_sorted(n, inds, vals)?))
        })?
        .into_iter()
        .unzip();

    let y = DistSparseVec::from_shards(n, shards)?;
    trace.attr("nrows", n).attr("ncols", at.ncols()).sched(sched).nnz(nnz_f as u64);
    trace.spawn(PHASE_GATHER, 1);
    trace.compute(PHASE_GATHER, &gather_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    trace.compute(PHASE_SCATTER, &scatter_profiles);
    Ok((y, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::container::DenseVec;
    use gblas_core::gen;
    use gblas_core::ops::selection::pull_first_visitor;
    use gblas_core::ops::transpose::transpose;
    use gblas_core::par::ExecCtx;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_shared_pull_at_every_grid() {
        let n = 240;
        let a = gen::erdos_renyi(n, 6, 811);
        let ctx = ExecCtx::serial();
        let at = transpose(&a, &ctx).unwrap();
        let fbits = DenseVec::from_fn(n, |i| i % 3 == 0);
        let visited = DenseVec::from_fn(n, |i| i % 5 == 0);
        let expect = pull_first_visitor(&at, &fbits, &visited, &ctx).unwrap();
        for (pr, pc) in [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let dat = DistCsrMatrix::from_global(&at, grid);
            let df = DistDenseVec::from_global(&fbits, p);
            let dv = DistDenseVec::from_global(&visited, p);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (y, report) = pull_first_visitor_dist(&dat, &df, &dv, &dctx).unwrap();
            assert_eq!(y.to_global(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn uses_only_bulk_communication() {
        let a = gen::erdos_renyi(200, 5, 812);
        let ctx = ExecCtx::serial();
        let at = transpose(&a, &ctx).unwrap();
        let grid = ProcGrid::new(2, 2);
        let dat = DistCsrMatrix::from_global(&at, grid);
        let fbits = DenseVec::from_fn(200, |i| i % 2 == 0);
        let visited = DenseVec::filled(200, false);
        let df = DistDenseVec::from_global(&fbits, 4);
        let dv = DistDenseVec::from_global(&visited, 4);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let _ = pull_first_visitor_dist(&dat, &df, &dv, &dctx).unwrap();
        let (fine, bulk, _) = dctx.comm.totals();
        assert_eq!(fine, 0, "pull is an aggregated bulk kernel");
        assert!(bulk > 0);
    }

    #[test]
    fn dimension_and_locale_checks() {
        let a = gen::erdos_renyi(100, 4, 813);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let ok = DistDenseVec::filled(100, false, 4);
        let wrong_len = DistDenseVec::filled(99, false, 4);
        let wrong_p = DistDenseVec::filled(100, false, 2);
        assert!(pull_first_visitor_dist(&da, &wrong_len, &ok, &dctx).is_err());
        assert!(pull_first_visitor_dist(&da, &ok, &wrong_len, &dctx).is_err());
        assert!(pull_first_visitor_dist(&da, &wrong_p, &ok, &dctx).is_err());
    }
}
