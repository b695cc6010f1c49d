//! Direction-optimizing traversals: the adaptive (`auto`) drivers.
//!
//! Beamer-style direction optimization recast in GraphBLAS terms: each
//! iteration of BFS / connected components / SSSP consults
//! [`gblas_core::ops::selection::decide`] with the measured frontier
//! density and picks, per iteration,
//!
//! * **direction** — push (SpMSpV from the sparse frontier) or pull
//!   (dense scan over the unexplored side with early exit);
//! * **frontier format** — sparse index list or dense bitmap;
//! * **merge strategy** — sort-based or bucketed SpMSpV compaction.
//!
//! Every decision is recorded through
//! [`GblasBackend::record_decision`], so traces show
//! `dir=push|pull`, `fmt=sparse|bitmap`, `merge=bucket|sort` per
//! iteration, and on the distributed backend the decision also prices
//! the allreduce that makes the density counts globally agreed.
//!
//! **Bit-identity contract**: under a deterministic schedule the pull
//! kernels produce exactly the values the push kernels produce (BFS
//! parents are the minimum in-frontier in-neighbor either way; CC and
//! SSSP relaxations are exact `min` combines), so `auto` returns results
//! byte-identical to any static policy. The differential proptests in
//! `tests/proptest_selection.rs` pin this.

use gblas_core::algebra::{semirings, First, Min, Semiring};
use gblas_core::backend::{GblasBackend, MaskSpec, SharedBackend};
use gblas_core::container::{CsrMatrix, DenseVec};
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::ops::selection::{decide, Decision, Direction, FrontierFmt, SelectionPolicy};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx};

use crate::bfs::BfsResult;
use crate::sssp::EdgeWeight;
use gblas_core::algebra::Scalar;

/// Ceiling average degree — the `d` in the selection heuristics.
fn avg_degree<B: GblasBackend, T: Scalar>(backend: &B, a: &B::Matrix<T>) -> usize {
    let n = backend.mat_nrows(a);
    if n == 0 {
        0
    } else {
        backend.mat_nnz(a).div_ceil(n)
    }
}

/// Direction-optimizing BFS over any backend.
///
/// Identical driver-side state to [`crate::bfs::bfs_on`], but each level
/// runs [`decide`] on the measured frontier and dispatches to either the
/// masked push SpMSpV or the [`GblasBackend::pull_first_visitor`] kernel
/// over the (lazily built) transpose. Returns the result plus the
/// per-level decision log.
pub fn bfs_selected_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    source: usize,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
) -> Result<(BfsResult, Vec<Decision>)> {
    check_dims("square matrix", backend.mat_nrows(a), backend.mat_ncols(a))?;
    let n = backend.mat_nrows(a);
    if source >= n {
        return Err(GblasError::IndexOutOfBounds { index: source, capacity: n });
    }
    let t = backend.selection_thresholds();
    let avg_deg = avg_degree(backend, a);
    let mut levels = DenseVec::filled(n, -1i64);
    let mut parents = DenseVec::filled(n, usize::MAX);
    let mut visited = backend.dense_filled(n, false);
    levels[source] = 0;
    parents[source] = source;
    backend.dense_set(&mut visited, source, true);
    let mut visited_count = 1usize;
    // The transpose is only materialized if a pull iteration happens.
    let mut at: Option<B::Matrix<T>> = None;
    let mut frontier_v: Vec<usize> = vec![source];
    let mut prev = Direction::Push;
    let mut decisions = Vec::new();
    let mut level = 0i64;
    while !frontier_v.is_empty() {
        let nnz_f = frontier_v.len();
        let unexplored = n - visited_count;
        let d = decide(policy, prev, nnz_f, unexplored, n, avg_deg, opts.merge, &t);
        backend.record_decision("bfs", level as usize, d, nnz_f, unexplored)?;
        prev = d.dir;
        decisions.push(d);
        level += 1;
        let sparse = backend.sparse_from_sorted(n, frontier_v.clone(), frontier_v.clone())?;
        let next = match d.dir {
            Direction::Push => {
                // Honor the chosen storage format: a bitmap-format
                // frontier is demoted for the push kernel. The round
                // trip is lossless (every value is its own index).
                let f = if d.fmt == FrontierFmt::Bitmap {
                    let bits = backend.sparse_to_bitmap(&sparse)?;
                    backend.bitmap_to_sparse(&bits)?
                } else {
                    sparse
                };
                backend.spmspv_first_visitor(
                    a,
                    &f,
                    Some(MaskSpec::complement(&visited)),
                    SpMSpVOpts { merge: d.merge, ..opts },
                )?
            }
            Direction::Pull => {
                let bits = backend.sparse_to_bitmap(&sparse)?;
                if at.is_none() {
                    at = Some(backend.mat_transpose(a)?);
                }
                backend.pull_first_visitor(at.as_ref().unwrap(), &bits, &visited)?
            }
        };
        let entries = backend.sparse_entries(&next);
        frontier_v.clear();
        for (v, parent) in entries {
            backend.dense_set(&mut visited, v, true);
            levels[v] = level;
            parents[v] = parent;
            frontier_v.push(v);
        }
        visited_count += frontier_v.len();
    }
    Ok((BfsResult { levels, parents }, decisions))
}

/// Shared-memory direction-optimizing BFS.
pub fn bfs_selected<T: Scalar>(
    a: &CsrMatrix<T>,
    source: usize,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<(BfsResult, Vec<Decision>)> {
    bfs_selected_on(&SharedBackend::new(ctx), a, source, policy, opts)
}

/// Distributed direction-optimizing BFS. The per-level decision is made
/// from global counts (priced as an allreduce by
/// [`GblasBackend::record_decision`]), so every locale runs the same
/// kernel every level.
pub fn bfs_selected_dist<T: Scalar>(
    a: &DistCsrMatrix<T>,
    source: usize,
    policy: SelectionPolicy,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(BfsResult, Vec<Decision>, gblas_sim::SimReport)> {
    let backend = DistBackend::with_strategy(dctx, strategy);
    let (result, decisions) = bfs_selected_on(&backend, a, source, policy, opts)?;
    Ok((result, decisions, backend.take_report()))
}

/// Direction-optimizing connected components over any backend.
///
/// Same per-round labels as [`crate::cc::connected_components_on`]
/// (provably: pushed candidates from unchanged neighbors can never win,
/// so the sparse delta round and the dense round update identically),
/// but each round chooses between a dense `(min, first)` SpMV (pull) and
/// a sparse SpMSpV over only the labels that changed last round (push).
pub fn connected_components_selected_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
) -> Result<(DenseVec<usize>, Vec<Decision>)> {
    check_dims("square matrix", backend.mat_nrows(a), backend.mat_ncols(a))?;
    let n = backend.mat_nrows(a);
    let t = backend.selection_thresholds();
    let avg_deg = avg_degree(backend, a);
    let ring: Semiring<Min, First> = Semiring::new(Min, First);
    let mut labels: Vec<usize> = (0..n).collect();
    // Vertices whose label changed last round; every vertex "changed" at
    // round zero, so the first round is exactly the dense recurrence.
    let mut changed: Vec<usize> = (0..n).collect();
    let mut prev = Direction::Pull;
    let mut decisions = Vec::new();
    let mut round = 0usize;
    loop {
        let nnz_f = changed.len();
        let d = decide(policy, prev, nnz_f, n, n, avg_deg, opts.merge, &t);
        backend.record_decision("cc", round, d, nnz_f, n)?;
        prev = d.dir;
        decisions.push(d);
        round += 1;
        let propagated: Vec<usize> = match d.dir {
            Direction::Pull => {
                let x = backend.dense_from_vec(labels.clone());
                let y: B::DenseVec<usize> = backend.spmv(a, &x, &ring)?;
                backend.dense_to_vec(y)
            }
            Direction::Push => {
                let vals: Vec<usize> = changed.iter().map(|&v| labels[v]).collect();
                let f = backend.sparse_from_sorted(n, changed.clone(), vals)?;
                let y: B::SparseVec<usize> = backend.spmspv_semiring(
                    a,
                    &f,
                    &ring,
                    None,
                    SpMSpVOpts { merge: d.merge, ..opts },
                )?;
                let mut out = vec![usize::MAX; n];
                for (j, v) in backend.sparse_entries(&y) {
                    out[j] = v;
                }
                out
            }
        };
        let mut next_changed = Vec::new();
        for v in 0..n {
            let candidate = propagated[v].min(labels[v]);
            if candidate < labels[v] {
                labels[v] = candidate;
                next_changed.push(v);
            }
        }
        backend.allreduce_scalar("cc-allreduce")?;
        if next_changed.is_empty() {
            return Ok((DenseVec::from_vec(labels), decisions));
        }
        changed = next_changed;
    }
}

/// Shared-memory direction-optimizing connected components.
pub fn connected_components_selected<T: Scalar>(
    a: &CsrMatrix<T>,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<(DenseVec<usize>, Vec<Decision>)> {
    connected_components_selected_on(&SharedBackend::new(ctx), a, policy, opts)
}

/// Distributed direction-optimizing connected components.
pub fn connected_components_selected_dist<T: Scalar>(
    a: &DistCsrMatrix<T>,
    policy: SelectionPolicy,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(DenseVec<usize>, Vec<Decision>, gblas_sim::SimReport)> {
    let backend = DistBackend::with_strategy(dctx, strategy);
    let (labels, decisions) = connected_components_selected_on(&backend, a, policy, opts)?;
    Ok((labels, decisions, backend.take_report()))
}

/// Direction-optimizing SSSP over any backend.
///
/// Push rounds run the delta `(min, +)` SpMSpV of
/// [`crate::sssp::sssp_on`]; pull rounds relax **every** edge with one
/// dense `(min, +)` SpMV over the tentative distances. The two produce
/// exactly the same improvements (a settled vertex `u` already satisfies
/// `dist[j] ≤ dist[u] + w`, so the dense min is attained on frontier
/// terms whenever it improves — exact `f64` equality, no tolerance).
pub fn sssp_selected_on<B: GblasBackend, T: EdgeWeight>(
    backend: &B,
    a: &B::Matrix<T>,
    source: usize,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
) -> Result<(DenseVec<f64>, Vec<Decision>)> {
    check_dims("square matrix", backend.mat_nrows(a), backend.mat_ncols(a))?;
    let n = backend.mat_nrows(a);
    if source >= n {
        return Err(GblasError::IndexOutOfBounds { index: source, capacity: n });
    }
    let t = backend.selection_thresholds();
    let avg_deg = avg_degree(backend, a);
    let w: B::Matrix<f64> = backend.mat_map(a, &|_, _, v| v.as_weight())?;
    let ring = semirings::min_plus();
    let mut dist = vec![f64::INFINITY; n];
    dist[source] = 0.0;
    let mut frontier: Vec<(usize, f64)> = vec![(source, 0.0)];
    let mut prev = Direction::Push;
    let mut decisions = Vec::new();
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        if rounds > n {
            return Err(GblasError::InvalidArgument(
                "sssp did not converge within V rounds (negative cycle?)".into(),
            ));
        }
        let nnz_f = frontier.len();
        let unsettled = dist.iter().filter(|d| d.is_infinite()).count();
        let d = decide(policy, prev, nnz_f, unsettled, n, avg_deg, opts.merge, &t);
        backend.record_decision("sssp", rounds, d, nnz_f, unsettled)?;
        prev = d.dir;
        decisions.push(d);
        rounds += 1;
        let relaxed: Vec<(usize, f64)> = match d.dir {
            Direction::Push => {
                let (inds, vals): (Vec<usize>, Vec<f64>) = frontier.iter().copied().unzip();
                let f = backend.sparse_from_sorted(n, inds, vals)?;
                let y: B::SparseVec<f64> = backend.spmspv_semiring(
                    &w,
                    &f,
                    &ring,
                    None,
                    SpMSpVOpts { merge: d.merge, ..opts },
                )?;
                backend.sparse_entries(&y)
            }
            Direction::Pull => {
                let x = backend.dense_from_vec(dist.clone());
                let y: B::DenseVec<f64> = backend.spmv(&w, &x, &ring)?;
                backend
                    .dense_to_vec(y)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, v)| v.is_finite())
                    .collect()
            }
        };
        frontier.clear();
        for (j, v) in relaxed {
            if v < dist[j] {
                dist[j] = v;
                frontier.push((j, v));
            }
        }
    }
    Ok((DenseVec::from_vec(dist), decisions))
}

/// Shared-memory direction-optimizing SSSP.
pub fn sssp_selected<T: EdgeWeight>(
    a: &CsrMatrix<T>,
    source: usize,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<(DenseVec<f64>, Vec<Decision>)> {
    sssp_selected_on(&SharedBackend::new(ctx), a, source, policy, opts)
}

/// Distributed direction-optimizing SSSP.
pub fn sssp_selected_dist<T: EdgeWeight>(
    a: &DistCsrMatrix<T>,
    source: usize,
    policy: SelectionPolicy,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(DenseVec<f64>, Vec<Decision>, gblas_sim::SimReport)> {
    let backend = DistBackend::with_strategy(dctx, strategy);
    let (dist, decisions) = sssp_selected_on(&backend, a, source, policy, opts)?;
    Ok((dist, decisions, backend.take_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::cc::connected_components;
    use crate::sssp::sssp;
    use gblas_core::gen;
    use gblas_dist::ProcGrid;
    use gblas_sim::MachineConfig;

    const POLICIES: [SelectionPolicy; 3] =
        [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];

    #[test]
    fn bfs_identical_across_policies_and_matches_static_driver() {
        // Dense enough that auto actually pulls mid-traversal.
        let a = gen::erdos_renyi(400, 8, 91);
        let ctx = ExecCtx::serial();
        let expect = bfs(&a, 0, &ctx).unwrap();
        for policy in POLICIES {
            let (r, decisions) = bfs_selected(&a, 0, policy, SpMSpVOpts::default(), &ctx).unwrap();
            assert_eq!(r, expect, "{policy:?}");
            assert!(!decisions.is_empty());
            r.validate(&a, 0).unwrap();
        }
    }

    #[test]
    fn auto_bfs_uses_both_directions_on_a_dense_graph() {
        let a = gen::erdos_renyi(500, 10, 5);
        let ctx = ExecCtx::serial();
        let (_, decisions) =
            bfs_selected(&a, 0, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).unwrap();
        let dirs: Vec<Direction> = decisions.iter().map(|d| d.dir).collect();
        assert!(dirs.contains(&Direction::Push), "{dirs:?}");
        assert!(dirs.contains(&Direction::Pull), "{dirs:?}");
    }

    #[test]
    fn bfs_dist_identical_across_policies() {
        let a = gen::erdos_renyi(300, 7, 92);
        let shared = bfs(&a, 3, &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        for policy in POLICIES {
            let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
            let (r, decisions, report) =
                bfs_selected_dist(&da, 3, policy, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx)
                    .unwrap();
            assert_eq!(r, shared, "{policy:?}");
            assert!(!decisions.is_empty());
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn single_locale_dist_auto_decisions_match_shared() {
        // At p = 1 the machine-aware thresholds reduce to the shared
        // defaults, so the decision sequences must be identical; at
        // p > 1 the distributed thresholds shift toward pull by design.
        let a = gen::erdos_renyi(300, 7, 92);
        let ctx = ExecCtx::serial();
        let (_, shared_d) =
            bfs_selected(&a, 3, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).unwrap();
        let grid = ProcGrid::new(1, 1);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(1, 24));
        let (_, dist_d, _) = bfs_selected_dist(
            &da,
            3,
            SelectionPolicy::Auto,
            CommStrategy::Bulk,
            SpMSpVOpts::default(),
            &dctx,
        )
        .unwrap();
        assert_eq!(shared_d, dist_d);
    }

    #[test]
    fn dist_auto_decisions_identical_across_grids_at_fixed_locale_count() {
        // The thresholds depend only on the locale *count*, not the grid
        // shape, and the density counts are global — so every grid of 4
        // locales must produce the same decision sequence.
        let a = gen::erdos_renyi(300, 7, 92);
        let mut seqs = Vec::new();
        for (pr, pc) in [(1, 4), (2, 2), (4, 1)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
            let (_, d, _) = bfs_selected_dist(
                &da,
                3,
                SelectionPolicy::Auto,
                CommStrategy::Bulk,
                SpMSpVOpts::default(),
                &dctx,
            )
            .unwrap();
            seqs.push(d);
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn cc_identical_across_policies_and_matches_static_driver() {
        let a = gen::erdos_renyi_symmetric(300, 3, 93);
        let ctx = ExecCtx::serial();
        let expect = connected_components(&a, &ctx).unwrap();
        for policy in POLICIES {
            let (labels, decisions) =
                connected_components_selected(&a, policy, SpMSpVOpts::default(), &ctx).unwrap();
            assert_eq!(labels, expect, "{policy:?}");
            assert!(!decisions.is_empty());
        }
    }

    #[test]
    fn cc_dist_identical_across_policies() {
        let a = gen::erdos_renyi_symmetric(200, 3, 94);
        let expect = connected_components(&a, &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        for policy in POLICIES {
            let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
            let (labels, _, report) = connected_components_selected_dist(
                &da,
                policy,
                CommStrategy::Bulk,
                SpMSpVOpts::default(),
                &dctx,
            )
            .unwrap();
            assert_eq!(labels, expect, "{policy:?}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn sssp_exactly_identical_across_policies() {
        let a = gen::erdos_renyi(300, 5, 95);
        let ctx = ExecCtx::serial();
        let expect = sssp(&a, 0, &ctx).unwrap();
        for policy in POLICIES {
            let (dist, decisions) =
                sssp_selected(&a, 0, policy, SpMSpVOpts::default(), &ctx).unwrap();
            // Bitwise, not approximate: the pull relaxation computes the
            // same f64 min as the push relaxation.
            assert_eq!(dist.as_slice(), expect.as_slice(), "{policy:?}");
            assert!(!decisions.is_empty());
        }
    }

    #[test]
    fn sssp_dist_identical_across_policies() {
        let a = gen::erdos_renyi(250, 5, 96);
        let expect = sssp(&a, 7, &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        for policy in POLICIES {
            let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
            let (dist, _, _) = sssp_selected_dist(
                &da,
                7,
                policy,
                CommStrategy::Bulk,
                SpMSpVOpts::default(),
                &dctx,
            )
            .unwrap();
            assert_eq!(dist.as_slice(), expect.as_slice(), "{policy:?}");
        }
    }

    #[test]
    fn selected_source_out_of_range() {
        let a = gen::erdos_renyi(10, 2, 97);
        let ctx = ExecCtx::serial();
        assert!(bfs_selected(&a, 10, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).is_err());
        assert!(sssp_selected(&a, 10, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).is_err());
    }
}
