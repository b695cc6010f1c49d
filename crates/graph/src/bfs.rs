//! Breadth-first search — the GraphBLAS "hello world" (§III).
//!
//! Level-synchronous BFS: the frontier is a sparse vector over vertices,
//! each level is one masked SpMSpV (`y ← x A` restricted to unvisited
//! columns), and the kernel's values are exactly the BFS parents — the
//! paper's SpMSpV stores "the row index as value" (Listing 7, line 25)
//! for precisely this purpose.
//!
//! There is exactly one implementation, [`bfs_on`], generic over
//! [`GblasBackend`], over the number `k ≥ 0` of sources it traverses from
//! at once, and over whether a [`SelectionPolicy`] may swap a level's push
//! for a pull (Beamer-style direction optimization). The `k` traversals
//! advance in lockstep — CombBLAS 2.0's `n×k` frontier, one level per
//! iteration — and every slot that pushes rides in one batched push, so a
//! single source is a batch of one. Each slot chooses its own direction
//! from its own counts, exactly as its solo run would. Both kernels return
//! each destination's *minimum* in-frontier in-neighbour, so slot `s` is
//! the same on any backend, executor, policy, batch and thread count.

use crate::policy::Chooser;
use gblas_core::algebra::Scalar;
use gblas_core::backend::{FirstVisitor, GblasBackend, MaskSpec, SharedBackend};
use gblas_core::container::{CsrMatrix, DenseVec, InNeighbours};
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::ops::selection::{Direction, SelectionPolicy};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx};

/// BFS output: per-vertex level and parent.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsResult {
    /// Level of each vertex (`-1` = unreached; source = 0).
    pub levels: DenseVec<i64>,
    /// Parent of each vertex in the BFS tree (`usize::MAX` = none;
    /// the source is its own parent).
    pub parents: DenseVec<usize>,
}

impl BfsResult {
    /// Number of reached vertices (including the source).
    pub fn reached(&self) -> usize {
        self.levels.as_slice().iter().filter(|&&l| l >= 0).count()
    }

    /// Validate the BFS tree against the graph: one level and one parent
    /// per row of `a`, and every reached non-source vertex has a reached
    /// parent one level shallower with an edge `parent -> vertex`.
    pub fn validate<T>(&self, a: &CsrMatrix<T>, source: usize) -> Result<()> {
        let n = a.nrows();
        check_dims("levels vs matrix rows", n, self.levels.len())?;
        check_dims("parents vs matrix rows", n, self.parents.len())?;
        for v in 0..n {
            let lv = self.levels[v];
            if lv < 0 {
                continue;
            }
            if v == source {
                if lv != 0 {
                    return Err(GblasError::InvalidArgument("source level != 0".into()));
                }
                continue;
            }
            let p = self.parents[v];
            if p == usize::MAX {
                return Err(GblasError::InvalidArgument(format!("reached {v} has no parent")));
            }
            if p >= n {
                return Err(GblasError::InvalidArgument(format!("parent {p} of {v} is no vertex")));
            }
            if self.levels[p] != lv - 1 {
                return Err(GblasError::InvalidArgument(format!(
                    "parent {p} of {v} at level {} != {}",
                    self.levels[p],
                    lv - 1
                )));
            }
            if a.get(p, v).is_none() {
                return Err(GblasError::InvalidArgument(format!("no edge {p} -> {v}")));
            }
        }
        Ok(())
    }
}

/// Level-synchronous BFS over any backend from each of `sources` (`k ≥ 0`
/// of them, duplicates allowed) at once, returning one result and one
/// decision log per source, batch order. Levels and parents are
/// driver-side control state; the visited bits live in the backend's own
/// layout so the mask never has to be reshaped, and a level's output is
/// the next level's frontier as it stands.
///
/// `policy = None` is the static driver: every level is one masked push
/// SpMSpV over all `k` frontiers, each under the complement of its own
/// visited set, and the decision logs come back empty. `Some(policy)`
/// gives every source its own per-level choice between that push and the
/// pull scan: the slots that push share one push under `opts`, and each
/// slot that pulls runs its own scan over `a`'s in-neighbours, which the
/// backend builds at the first pull and keeps. A slot whose frontier is
/// empty decides nothing and rides along in the push. So slot `s` makes
/// the decisions, and returns the result, of the run from `sources[s]`
/// alone.
pub fn bfs_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    sources: &[usize],
    policy: Option<SelectionPolicy>,
    opts: SpMSpVOpts,
) -> Result<Vec<(BfsResult, Vec<Direction>)>> {
    bfs_observed(backend, a, sources, policy, opts, |_| {})
}

/// [`bfs_on`] calling `observe(level)` after each level — how a harness
/// (the allocation benchmark) samples per-level cost from the loop the
/// library runs instead of a copy of it.
pub fn bfs_observed<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    sources: &[usize],
    policy: Option<SelectionPolicy>,
    opts: SpMSpVOpts,
    mut observe: impl FnMut(usize),
) -> Result<Vec<(BfsResult, Vec<Direction>)>> {
    let n = crate::check_sources(backend, a, sources)?;
    let k = sources.len();
    let new_chooser = || Chooser::new(backend, a, "bfs", Direction::Push, policy);
    let mut choosers: Vec<Chooser> = sources.iter().map(|_| new_chooser()).collect();
    let mut levels = vec![DenseVec::filled(n, -1i64); k];
    let mut parents = vec![DenseVec::filled(n, usize::MAX); k];
    let mut visited: Vec<B::DenseVec<bool>> =
        sources.iter().map(|_| backend.dense_filled(n, false)).collect();
    let mut visited_count = vec![1usize; k];
    for (s, &src) in sources.iter().enumerate() {
        levels[s][src] = 0;
        parents[s][src] = src;
        backend.dense_set(&mut visited[s], src, true);
    }
    let mut frontier: Vec<B::SparseVec<usize>> = sources
        .iter()
        .map(|&src| backend.sparse_from_sorted(n, vec![src], vec![src]))
        .collect::<Result<_>>()?;
    let (mut level, mut pull) = (0usize, vec![false; k]);
    while frontier.iter().any(|f| backend.sparse_nnz(f) > 0) {
        // A slot whose frontier is empty decides nothing and rides along in
        // the push.
        for (s, f) in frontier.iter().enumerate() {
            let nnz_f = backend.sparse_nnz(f);
            let unexplored = || n - visited_count[s];
            pull[s] = nnz_f > 0
                && choosers[s].choose(backend, level, nnz_f, unexplored)? == Direction::Pull;
        }
        level += 1;
        let (mut xs, mut masks, mut pulled) = (Vec::new(), Vec::new(), Vec::new());
        for (s, x) in frontier.drain(..).enumerate() {
            if !pull[s] {
                xs.push(x);
                masks.push(MaskSpec::complement(&visited[s]));
                continue;
            }
            pulled.push(backend.pull_first_visitor(a, &x, &visited[s])?);
        }
        // With no slot left to push, the riders keep their empty frontiers.
        let pushed = if xs.iter().any(|x| backend.sparse_nnz(x) > 0) {
            backend.spmspv(a, &xs, &FirstVisitor, Some(&masks), opts)?
        } else {
            xs
        };
        let (mut pushed, mut pulled) = (pushed.into_iter(), pulled.into_iter());
        for (s, &pulls) in pull.iter().enumerate() {
            let next = crate::only(if pulls { pulled.next() } else { pushed.next() })?;
            for (v, parent) in backend.sparse_entries(&next) {
                backend.dense_set(&mut visited[s], v, true);
                levels[s][v] = level as i64;
                parents[s][v] = parent;
            }
            visited_count[s] += backend.sparse_nnz(&next);
            // Both kernels ignore frontier values and emit in the
            // frontier's own layout, so the parents vector serves as the
            // next frontier.
            frontier.push(next);
        }
        observe(level);
    }
    let results =
        levels.into_iter().zip(parents).map(|(levels, parents)| BfsResult { levels, parents });
    Ok(results.zip(choosers.into_iter().map(|c| c.decisions)).collect())
}

/// Shared-memory BFS from `source` over the out-edges of `a` (square),
/// direction-optimizing: each level pushes or pulls as
/// [`SelectionPolicy::Auto`] decides, and the first pull builds the
/// in-neighbour lists `a` then keeps for every later solve. Levels and
/// parents equal the push's bit for bit. A one-shot traversal, which
/// would pay that build once for one solve, calls [`bfs_with`].
pub fn bfs<T: Scalar>(a: &CsrMatrix<T>, source: usize, ctx: &ExecCtx) -> Result<BfsResult> {
    let backend = SharedBackend::new(ctx);
    let runs = bfs_on(&backend, a, &[source], default_policy(a), SpMSpVOpts::default())?;
    Ok(crate::only(runs)?.0)
}

/// The policy of the shared-memory defaults ([`bfs`], `bfs_multi`):
/// `Auto`, except on a matrix too large to keep 32-bit in-neighbour lists,
/// which only pushes.
pub(crate) fn default_policy<T>(a: &CsrMatrix<T>) -> Option<SelectionPolicy> {
    (a.nrows() <= InNeighbours::MAX_ROWS).then_some(SelectionPolicy::Auto)
}

/// BFS that only pushes, with explicit SpMSpV options (sort algorithm /
/// merge strategy), so the frontier loop can run either the sort-based or
/// the sort-free bucketed merge. Builds nothing beside the traversal.
pub fn bfs_with<T: Scalar>(
    a: &CsrMatrix<T>,
    source: usize,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<BfsResult> {
    Ok(crate::only(bfs_on(&SharedBackend::new(ctx), a, &[source], None, opts)?)?.0)
}

/// Shared-memory direction-optimizing BFS, with its per-level decision log.
pub fn bfs_selected<T: Scalar>(
    a: &CsrMatrix<T>,
    source: usize,
    policy: SelectionPolicy,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<(BfsResult, Vec<Direction>)> {
    crate::only(bfs_on(&SharedBackend::new(ctx), a, &[source], Some(policy), opts)?)
}

/// Distributed BFS: the same [`bfs_on`] text with the Listing-8 SpMSpV as
/// the level kernel and the "not yet visited" filter as a **distributed
/// mask** — the §V future-work feature ("masks ... have not been
/// attempted in distributed memory before"). Returns the result and the
/// accumulated simulated time across all levels.
pub fn bfs_dist<T: Scalar>(
    a: &DistCsrMatrix<T>,
    source: usize,
    dctx: &DistCtx,
) -> Result<(BfsResult, gblas_sim::SimReport)> {
    bfs_dist_with(a, source, CommStrategy::Fine, SpMSpVOpts::default(), dctx)
}

/// Distributed BFS with an explicit communication strategy and SpMSpV
/// options for the per-level kernel.
pub fn bfs_dist_with<T: Scalar>(
    a: &DistCsrMatrix<T>,
    source: usize,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(BfsResult, gblas_sim::SimReport)> {
    let backend = DistBackend::with_strategy(dctx, strategy);
    let (result, _) = crate::only(bfs_on(&backend, a, &[source], None, opts)?)?;
    Ok((result, backend.take_report()))
}

/// Distributed direction-optimizing BFS: decisions come from global
/// counts, so every locale runs the same kernel every level.
pub fn bfs_selected_dist<T: Scalar>(
    a: &DistCsrMatrix<T>,
    source: usize,
    policy: SelectionPolicy,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(BfsResult, Vec<Direction>, gblas_sim::SimReport)> {
    let backend = DistBackend::with_strategy(dctx, strategy);
    let (result, decisions) = crate::only(bfs_on(&backend, a, &[source], Some(policy), opts)?)?;
    Ok((result, decisions, backend.take_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;
    use gblas_dist::ProcGrid;
    use gblas_sim::MachineConfig;

    /// Reference BFS levels by plain queue traversal.
    fn reference_levels<T>(a: &CsrMatrix<T>, source: usize) -> Vec<i64> {
        let n = a.nrows();
        let mut levels = vec![-1i64; n];
        levels[source] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let (cols, _) = a.row(u);
            for &v in cols {
                if levels[v] < 0 {
                    levels[v] = levels[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        levels
    }

    #[test]
    fn bfs_levels_match_reference() {
        let a = gen::erdos_renyi(500, 4, 17);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let r = bfs(&a, 0, &ctx).unwrap();
            assert_eq!(r.levels.as_slice(), reference_levels(&a, 0).as_slice());
            r.validate(&a, 0).unwrap();
        }
    }

    #[test]
    fn bfs_on_path_graph() {
        let a =
            CsrMatrix::from_triplets(5, 5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
                .unwrap();
        let ctx = ExecCtx::serial();
        let r = bfs(&a, 0, &ctx).unwrap();
        assert_eq!(r.levels.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.parents.as_slice(), &[0, 0, 1, 2, 3]);
        assert_eq!(r.reached(), 5);
    }

    #[test]
    fn bfs_unreachable_vertices_stay_unreached() {
        // two disconnected edges
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let ctx = ExecCtx::serial();
        let r = bfs(&a, 0, &ctx).unwrap();
        assert_eq!(r.levels.as_slice(), &[0, 1, -1, -1]);
        assert_eq!(r.reached(), 2);
    }

    #[test]
    fn bfs_dist_matches_shared() {
        let a = gen::erdos_renyi(400, 5, 27);
        let shared = bfs(&a, 3, &ExecCtx::serial()).unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 4)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dist, report) = bfs_dist(&da, 3, &dctx).unwrap();
            assert_eq!(dist.levels, shared.levels, "grid {pr}x{pc}");
            dist.validate(&a, 3).unwrap();
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn bucketed_bfs_matches_sorted_bfs() {
        use gblas_core::ops::spmspv::MergeStrategy;
        let a = gen::erdos_renyi(500, 4, 47);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let sorted = bfs_with(&a, 0, SpMSpVOpts::default(), &ctx).unwrap();
            let bucketed =
                bfs_with(&a, 0, SpMSpVOpts::with_merge(MergeStrategy::Bucketed), &ctx).unwrap();
            assert_eq!(sorted, bucketed, "threads {threads}");
            bucketed.validate(&a, 0).unwrap();
        }
    }

    #[test]
    fn bucketed_bulk_bfs_dist_matches_shared() {
        use gblas_core::ops::spmspv::MergeStrategy;
        let a = gen::erdos_renyi(400, 5, 57);
        let shared = bfs(&a, 3, &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
        let (dist, report) = bfs_dist_with(
            &da,
            3,
            CommStrategy::Bulk,
            SpMSpVOpts::with_merge(MergeStrategy::Bucketed),
            &dctx,
        )
        .unwrap();
        assert_eq!(dist.levels, shared.levels);
        dist.validate(&a, 3).unwrap();
        assert!(report.total() > 0.0);
    }

    #[test]
    fn bfs_source_out_of_range() {
        let a = gen::erdos_renyi(10, 2, 37);
        assert!(bfs(&a, 10, &ExecCtx::serial()).is_err());
        let auto = SelectionPolicy::Auto;
        assert!(bfs_selected(&a, 10, auto, SpMSpVOpts::default(), &ExecCtx::serial()).is_err());
    }

    const POLICIES: [SelectionPolicy; 3] =
        [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];

    #[test]
    fn bfs_identical_across_policies_and_matches_static_driver() {
        // Dense enough that auto actually pulls mid-traversal.
        let a = gen::erdos_renyi(400, 8, 91);
        let ctx = ExecCtx::serial();
        let expect = bfs_with(&a, 0, SpMSpVOpts::default(), &ctx).unwrap();
        for policy in POLICIES {
            let (r, decisions) = bfs_selected(&a, 0, policy, SpMSpVOpts::default(), &ctx).unwrap();
            assert_eq!(r, expect, "{policy:?}");
            assert!(!decisions.is_empty());
            r.validate(&a, 0).unwrap();
        }
    }

    #[test]
    fn static_bfs_decides_nothing_and_observes_every_level() {
        let a = gen::erdos_renyi(300, 6, 93);
        let ctx = ExecCtx::serial();
        let mut seen = Vec::new();
        let backend = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        let slots = bfs_observed(&backend, &a, &[0], None, opts, |level| seen.push(level)).unwrap();
        let (r, decisions) = &slots[0];
        assert!(decisions.is_empty());
        // one call per level run, the last of which finds nothing new
        let depth = *r.levels.as_slice().iter().max().unwrap() as usize;
        assert_eq!(seen, (1..=depth + 1).collect::<Vec<_>>());
    }

    #[test]
    fn auto_bfs_uses_both_directions_on_a_dense_graph() {
        let a = gen::erdos_renyi(500, 10, 5);
        let ctx = ExecCtx::serial();
        let (_, dirs) =
            bfs_selected(&a, 0, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).unwrap();
        assert!(dirs.contains(&Direction::Push), "{dirs:?}");
        assert!(dirs.contains(&Direction::Pull), "{dirs:?}");
    }

    #[test]
    fn bfs_dist_identical_across_policies() {
        let a = gen::erdos_renyi(300, 7, 92);
        let shared = bfs_with(&a, 3, SpMSpVOpts::default(), &ExecCtx::serial()).unwrap();
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

    /// The decision log of an `auto` distributed BFS over `a` from vertex 3.
    fn dist_auto_decisions(a: &CsrMatrix<f64>, pr: usize, pc: usize) -> Vec<Direction> {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
        let auto = SelectionPolicy::Auto;
        bfs_selected_dist(&da, 3, auto, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx).unwrap().1
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
        assert_eq!(shared_d, dist_auto_decisions(&a, 1, 1));
    }

    #[test]
    fn dist_auto_decisions_identical_across_grids_at_fixed_locale_count() {
        // The thresholds depend only on the locale *count*, not the grid
        // shape, and the density counts are global — so every grid of 4
        // locales must produce the same decision sequence.
        let a = gen::erdos_renyi(300, 7, 92);
        let seqs: Vec<_> =
            [(1, 4), (2, 2), (4, 1)].map(|(pr, pc)| dist_auto_decisions(&a, pr, pc)).into();
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn bfs_rejects_rectangular() {
        let a = CsrMatrix::<f64>::empty(3, 4);
        assert!(bfs(&a, 0, &ExecCtx::serial()).is_err());
    }
}
