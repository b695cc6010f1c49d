//! Connected components by min-label propagation.
//!
//! Classic GraphBLAS formulation: labels start as vertex ids; each round
//! every vertex takes the minimum label among itself and its neighbours,
//! computed as one SpMV over the `(min, first)` semiring
//! (`y[j] = min_i label[i]` over in-neighbours `i`). Fixpoint in at most
//! `diameter` rounds. The input must be symmetric (an undirected graph).
//!
//! One implementation, [`connected_components_on`], generic over
//! [`GblasBackend`] and an optional per-round [`SelectionPolicy`].

use crate::policy::Chooser;
use gblas_core::algebra::{First, Min, Scalar, Semiring};
use gblas_core::backend::GblasBackend;
use gblas_core::container::DenseVec;
use gblas_core::error::{check_dims, Result};
use gblas_core::ops::selection::{Direction, SelectionPolicy};
use gblas_core::ops::spmspv::SpMSpVOpts;

/// Min-label propagation over any backend. Labels are driver-side
/// control state; the min-combine with the previous labels runs in
/// ascending vertex order, and the global "changed?" decision is priced
/// as one scalar all-reduce per round.
///
/// `policy = None` is the static driver: every round is one dense
/// `(min, first)` SpMV (pull) and the decision log comes back empty.
/// `Some(policy)` decides per round between that and a push — one SpMSpV
/// (merged per `opts`) from only the vertices whose label changed last
/// round. Pushed candidates from unchanged neighbours can never win, so
/// labels and round counts do not depend on the choice.
pub fn connected_components_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    policy: Option<SelectionPolicy>,
    opts: SpMSpVOpts,
) -> Result<(DenseVec<usize>, Vec<Direction>)> {
    check_dims("square matrix", backend.mat_nrows(a), backend.mat_ncols(a))?;
    let n = backend.mat_nrows(a);
    let mut chooser = Chooser::new(backend, a, "cc", Direction::Pull, policy);
    let ring: Semiring<Min, First> = Semiring::new(Min, First);
    let mut labels: Vec<usize> = (0..n).collect();
    // Vertices whose label changed last round; every vertex "changed" at
    // round zero, so the first round is the dense recurrence either way.
    let mut changed: Vec<usize> = (0..n).collect();
    let mut round = 0usize;
    loop {
        let dir = chooser.choose(backend, round, changed.len(), || n)?;
        round += 1;
        let propagated: Vec<usize> = match dir {
            Direction::Pull => {
                let xs = [backend.dense_from_vec(labels.clone())];
                let ys: Vec<B::DenseVec<usize>> = backend.spmv(a, &xs, &ring)?;
                backend.dense_to_vec(crate::only(ys)?)
            }
            Direction::Push => {
                let vals: Vec<usize> = changed.iter().map(|&v| labels[v]).collect();
                let f = backend.sparse_from_sorted(n, changed, vals)?;
                let ys: Vec<B::SparseVec<usize>> =
                    backend.spmspv(a, std::slice::from_ref(&f), &ring, None, opts)?;
                let mut out = vec![usize::MAX; n];
                for (j, v) in backend.sparse_entries(&crate::only(ys)?) {
                    out[j] = v;
                }
                out
            }
        };
        changed = Vec::new();
        for v in 0..n {
            if propagated[v] < labels[v] {
                labels[v] = propagated[v];
                changed.push(v);
            }
        }
        backend.allreduce_scalar("cc-allreduce")?;
        if changed.is_empty() {
            return Ok((DenseVec::from_vec(labels), chooser.decisions));
        }
    }
}

/// Count distinct components from a label vector.
pub fn component_count(labels: &DenseVec<usize>) -> usize {
    let mut seen = labels.as_slice().to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::backend::SharedBackend;
    use gblas_core::container::CsrMatrix;
    use gblas_core::gen;
    use gblas_core::par::ExecCtx;
    use gblas_dist::ops::spmspv::CommStrategy;
    use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};
    use gblas_sim::MachineConfig;

    /// Reference components via union-find.
    fn reference(a: &CsrMatrix<f64>) -> Vec<usize> {
        let n = a.nrows();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        for (i, j, _) in a.iter() {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
        // canonical min labels
        let mut label = vec![0usize; n];
        for (v, slot) in label.iter_mut().enumerate() {
            *slot = find(&mut parent, v);
        }
        // the union-find root is not necessarily the min id; fix by a
        // second pass collecting min per root
        let mut min_of_root = vec![usize::MAX; n];
        for v in 0..n {
            min_of_root[label[v]] = min_of_root[label[v]].min(v);
        }
        label.iter().map(|&r| min_of_root[r]).collect()
    }

    #[test]
    fn matches_union_find_on_random_graph() {
        let a = gen::erdos_renyi_symmetric(300, 2, 19);
        let ctx = ExecCtx::with_threads(2);
        let b = SharedBackend::new(&ctx);
        let (labels, _) = connected_components_on(&b, &a, None, SpMSpVOpts::default()).unwrap();
        assert_eq!(labels.as_slice(), reference(&a).as_slice());
    }

    #[test]
    fn two_cliques() {
        // vertices {0,1,2} and {3,4} fully connected internally
        let mut trips = Vec::new();
        for &(i, j) in &[(0, 1), (0, 2), (1, 2), (3, 4)] {
            trips.push((i, j, 1.0));
            trips.push((j, i, 1.0));
        }
        let a = CsrMatrix::from_triplets(5, 5, &trips).unwrap();
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (labels, _) = connected_components_on(&b, &a, None, SpMSpVOpts::default()).unwrap();
        assert_eq!(labels.as_slice(), &[0, 0, 0, 3, 3]);
        assert_eq!(component_count(&labels), 2);
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let a = CsrMatrix::<f64>::empty(4, 4);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (labels, _) = connected_components_on(&b, &a, None, SpMSpVOpts::default()).unwrap();
        assert_eq!(labels.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(component_count(&labels), 4);
    }

    #[test]
    fn distributed_matches_shared_at_every_grid() {
        let a = gen::erdos_renyi_symmetric(200, 2, 29);
        let ctx = ExecCtx::serial();
        let opts = SpMSpVOpts::default();
        let (expect, _) =
            connected_components_on(&SharedBackend::new(&ctx), &a, None, opts).unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let b = DistBackend::new(&dctx);
            let (labels, _) = connected_components_on(&b, &da, None, opts).unwrap();
            assert_eq!(labels, expect, "grid {pr}x{pc}");
            assert!(b.take_report().total() > 0.0);
            // all-bulk kernel
            assert_eq!(dctx.comm.totals().0, 0);
        }
    }

    const POLICIES: [SelectionPolicy; 3] =
        [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];

    #[test]
    fn cc_identical_across_policies_and_matches_static_driver() {
        let a = gen::erdos_renyi_symmetric(300, 3, 93);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        let (expect, _) = connected_components_on(&b, &a, None, opts).unwrap();
        for policy in POLICIES {
            let (labels, decisions) = connected_components_on(&b, &a, Some(policy), opts).unwrap();
            assert_eq!(labels, expect, "{policy:?}");
            assert!(!decisions.is_empty());
        }
    }

    #[test]
    fn cc_dist_identical_across_policies() {
        let a = gen::erdos_renyi_symmetric(200, 3, 94);
        let ctx = ExecCtx::serial();
        let opts = SpMSpVOpts::default();
        let (expect, _) =
            connected_components_on(&SharedBackend::new(&ctx), &a, None, opts).unwrap();
        let da = DistCsrMatrix::from_global(&a, ProcGrid::new(2, 2));
        for policy in POLICIES {
            let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
            let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            let (labels, _) = connected_components_on(&b, &da, Some(policy), opts).unwrap();
            assert_eq!(labels, expect, "{policy:?}");
            assert!(b.take_report().total() > 0.0);
        }
    }

    #[test]
    fn single_giant_component_on_dense_random() {
        let a = gen::erdos_renyi_symmetric(200, 8, 23);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (labels, _) = connected_components_on(&b, &a, None, SpMSpVOpts::default()).unwrap();
        // d = 8 >> ln(200): overwhelmingly a single giant component
        assert_eq!(component_count(&labels), 1);
        assert!(labels.as_slice().iter().all(|&l| l == 0));
    }
}
