//! "Which direction does this iteration run?" — asked here, once, by the
//! traversals with a choice (`bfs_on`, `sssp_on`, `connected_components_on`).

use gblas_core::algebra::Scalar;
use gblas_core::backend::GblasBackend;
use gblas_core::error::Result;
use gblas_core::ops::selection::{decide, Direction, SelectionPolicy, SelectionThresholds};

/// A traversal's per-iteration direction choice and its log; a batched
/// traversal keeps one per source, fed by that source's own counts.
///
/// With no [`SelectionPolicy`] there is nothing to choose: every iteration
/// runs the algorithm's native direction, and nothing is decided, recorded
/// or charged. With one, every iteration consults [`decide`] on the
/// measured densities and records the direction through
/// [`GblasBackend::record_decision`] (a `select` span; on the distributed
/// backend also the allreduce that agrees the counts).
pub(crate) struct Chooser {
    policy: Option<(SelectionPolicy, SelectionThresholds, usize)>,
    algo: &'static str,
    n: usize,
    /// Last iteration's direction (the hysteresis input), native at first.
    prev: Direction,
    /// One entry per decided iteration; empty without a policy.
    pub(crate) decisions: Vec<Direction>,
}

impl Chooser {
    /// A chooser for `algo`, natively run in direction `native`, over `a`.
    pub(crate) fn new<B: GblasBackend, T: Scalar>(
        backend: &B,
        a: &B::Matrix<T>,
        algo: &'static str,
        native: Direction,
        policy: Option<SelectionPolicy>,
    ) -> Self {
        let n = backend.mat_nrows(a);
        // Ceiling average degree — the `d` in the selection heuristics.
        let avg_deg = backend.mat_nnz(a).div_ceil(n.max(1));
        let policy = policy.map(|p| (p, backend.selection_thresholds(), avg_deg));
        Chooser { policy, algo, n, prev: native, decisions: Vec::new() }
    }

    /// Direction of iteration `iter`, given its frontier size and
    /// (evaluated only under a policy) the number of vertices still to
    /// reach.
    pub(crate) fn choose<B: GblasBackend>(
        &mut self,
        backend: &B,
        iter: usize,
        nnz_f: usize,
        unexplored: impl FnOnce() -> usize,
    ) -> Result<Direction> {
        let Some((policy, thresholds, avg_deg)) = &self.policy else {
            return Ok(self.prev);
        };
        let unexplored = unexplored();
        let dir = decide(*policy, self.prev, nnz_f, unexplored, self.n, *avg_deg, thresholds);
        backend.record_decision(self.algo, iter, dir, nnz_f, unexplored)?;
        self.prev = dir;
        self.decisions.push(dir);
        Ok(dir)
    }
}
