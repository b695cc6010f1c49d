//! Betweenness centrality (Brandes) in GraphBLAS form.
//!
//! The classic demonstration that the paper's operation set composes into
//! nontrivial algorithms: a *forward* phase of path-counting BFS sweeps
//! (masked plus-times SpMSpV, one frontier per level, exactly the
//! Listing-7 kernel with accumulation) and a *backward* phase propagating
//! dependencies through the transposed matrix (`mxv` + element-wise
//! combines). Unweighted, directed; normalized by convention of Brandes
//! (no division by 2).
//!
//! One implementation, [`betweenness_on`], generic over
//! [`GblasBackend`]: the visited and previous-frontier masks are dense
//! boolean vectors in the backend's own layout, so the same text runs the
//! masked sweeps in shared or distributed memory.

use gblas_core::algebra::{semirings, Scalar};
use gblas_core::backend::{GblasBackend, MaskSpec};
use gblas_core::container::DenseVec;
use gblas_core::error::Result;
use gblas_core::ops::spmspv::SpMSpVOpts;

/// Brandes over any backend: per-source forward path-counting sweeps
/// against the complement of the visited set, then dependency
/// back-propagation through the transpose restricted to the previous
/// frontier. Sigma, delta and the per-level frontier entry lists are
/// driver-side control state.
pub fn betweenness_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    sources: &[usize],
) -> Result<DenseVec<f64>> {
    let n = crate::check_square(backend, a, sources)?;
    // Path counting needs numeric weights of 1 regardless of T.
    let ones: B::Matrix<f64> = backend.mat_map(a, &|_, _, _| 1.0f64)?;
    let ones_t = backend.mat_transpose(&ones)?;
    let ring = semirings::plus_times_f64();
    let opts = SpMSpVOpts::default();
    let mut bc = vec![0.0f64; n];

    for &source in sources {
        // ---- Forward: sigma per level, frontiers as driver-side entry
        // lists (index, path count).
        let mut visited = backend.dense_filled(n, false);
        backend.dense_set(&mut visited, source, true)?;
        let mut sigma = vec![0.0f64; n];
        sigma[source] = 1.0;
        // The current frontier is carried separately so the loop never has
        // to assume `frontiers` is non-empty; a source with no out-edges
        // (empty first expansion) simply leaves one frontier and an empty
        // backward pass — zero contribution, no panic.
        let mut current: Vec<(usize, f64)> = vec![(source, 1.0)];
        let mut frontiers: Vec<Vec<(usize, f64)>> = Vec::new();
        while !current.is_empty() {
            let fx = backend.sparse_from_sorted(
                n,
                current.iter().map(|&(v, _)| v).collect(),
                current.iter().map(|&(_, p)| p).collect(),
            )?;
            let next: Vec<B::SparseVec<f64>> = backend.spmspv(
                &ones,
                std::slice::from_ref(&fx),
                &ring,
                Some(&[MaskSpec::complement(&visited)]),
                opts,
            )?;
            let entries = backend.sparse_entries(&crate::only(next)?);
            for &(v, paths) in &entries {
                backend.dense_set(&mut visited, v, true)?;
                sigma[v] = paths;
            }
            frontiers.push(std::mem::replace(&mut current, entries));
        }
        // ---- Backward: dependency accumulation.
        let mut delta = vec![0.0f64; n];
        for d in (1..frontiers.len()).rev() {
            // w[v] = (1 + delta[v]) / sigma[v] on frontier d
            let fd = &frontiers[d];
            let w = backend.sparse_from_sorted(
                n,
                fd.iter().map(|&(v, _)| v).collect(),
                fd.iter().map(|&(v, _)| (1.0 + delta[v]) / sigma[v]).collect(),
            )?;
            // t = Aᵀ w restricted to the previous frontier:
            // t[u] = Σ_{v : u->v} w[v]
            let mut prev_mask = backend.dense_filled(n, false);
            for &(u, _) in &frontiers[d - 1] {
                backend.dense_set(&mut prev_mask, u, true)?;
            }
            let t: Vec<B::SparseVec<f64>> = backend.spmspv(
                &ones_t,
                std::slice::from_ref(&w),
                &ring,
                Some(&[MaskSpec::new(&prev_mask)]),
                opts,
            )?;
            for (u, tv) in backend.sparse_entries(&crate::only(t)?) {
                delta[u] += sigma[u] * tv;
            }
        }
        for (v, slot) in bc.iter_mut().enumerate() {
            if v != source {
                *slot += delta[v];
            }
        }
    }
    Ok(DenseVec::from_vec(bc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::backend::SharedBackend;
    use gblas_core::container::CsrMatrix;
    use gblas_core::gen;
    use gblas_core::par::ExecCtx;
    use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};
    use gblas_sim::MachineConfig;

    /// Reference Brandes (queue + stack).
    fn reference(a: &CsrMatrix<f64>, sources: &[usize]) -> Vec<f64> {
        let n = a.nrows();
        let mut bc = vec![0.0f64; n];
        for &s in sources {
            let mut stack = Vec::new();
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut sigma = vec![0.0f64; n];
            let mut dist = vec![-1i64; n];
            sigma[s] = 1.0;
            dist[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                stack.push(u);
                let (cols, _) = a.row(u);
                for &v in cols {
                    if dist[v] < 0 {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                    if dist[v] == dist[u] + 1 {
                        sigma[v] += sigma[u];
                        preds[v].push(u);
                    }
                }
            }
            let mut delta = vec![0.0f64; n];
            while let Some(w) = stack.pop() {
                for &u in &preds[w] {
                    delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
                }
                if w != s {
                    bc[w] += delta[w];
                }
            }
        }
        bc
    }

    #[test]
    fn path_graph_middle_vertices_score() {
        // 0 -> 1 -> 2 -> 3: vertex 1 lies on paths 0->2, 0->3; vertex 2 on
        // 0->3, 1->3.
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let sources: Vec<usize> = (0..4).collect();
        let ctx = ExecCtx::serial();
        let bc = betweenness_on(&SharedBackend::new(&ctx), &a, &sources).unwrap();
        assert_eq!(bc.as_slice(), &[0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn star_centre_dominates() {
        // undirected star: centre on every leaf-to-leaf path
        let mut trips = Vec::new();
        for leaf in 1..6 {
            trips.push((0, leaf, 1.0));
            trips.push((leaf, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(6, 6, &trips).unwrap();
        let sources: Vec<usize> = (0..6).collect();
        let ctx = ExecCtx::serial();
        let bc = betweenness_on(&SharedBackend::new(&ctx), &a, &sources).unwrap();
        // centre: 5 sources x 4 other leaves reached through it
        assert_eq!(bc[0], 20.0);
        for leaf in 1..6 {
            assert_eq!(bc[leaf], 0.0);
        }
    }

    #[test]
    fn matches_brandes_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let a = gen::erdos_renyi(60, 3, seed);
            let sources: Vec<usize> = (0..60).collect();
            let ctx = ExecCtx::with_threads(2);
            let bc = betweenness_on(&SharedBackend::new(&ctx), &a, &sources).unwrap();
            let expect = reference(&a, &sources);
            for v in 0..60 {
                assert!(
                    (bc[v] - expect[v]).abs() < 1e-6,
                    "seed {seed} vertex {v}: {} vs {}",
                    bc[v],
                    expect[v]
                );
            }
        }
    }

    #[test]
    fn sampled_sources_subset() {
        let a = gen::erdos_renyi(80, 4, 9);
        let sources = [0usize, 17, 42];
        let ctx = ExecCtx::serial();
        let bc = betweenness_on(&SharedBackend::new(&ctx), &a, &sources).unwrap();
        let expect = reference(&a, &sources);
        for v in 0..80 {
            assert!((bc[v] - expect[v]).abs() < 1e-6, "vertex {v}");
        }
    }

    #[test]
    fn source_with_no_out_edges_contributes_zero() {
        // vertex 2 has no out-edges: its sweep ends at level 0
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0)]).unwrap();
        let bc = betweenness_on(&SharedBackend::new(&ExecCtx::serial()), &a, &[2]).unwrap();
        assert_eq!(bc.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn invalid_source_is_error() {
        let a = CsrMatrix::<f64>::empty(3, 3);
        assert!(betweenness_on(&SharedBackend::new(&ExecCtx::serial()), &a, &[3]).is_err());
    }

    #[test]
    fn distributed_matches_shared_within_tolerance() {
        let a = gen::erdos_renyi(60, 3, 5);
        let sources = [0usize, 9, 23];
        let ctx = ExecCtx::serial();
        let expect = betweenness_on(&SharedBackend::new(&ctx), &a, &sources).unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (4, 1)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let b = DistBackend::new(&dctx);
            let bc = betweenness_on(&b, &da, &sources).unwrap();
            for v in 0..60 {
                assert!(
                    (bc[v] - expect[v]).abs() < 1e-9,
                    "grid {pr}x{pc} vertex {v}: {} vs {}",
                    bc[v],
                    expect[v]
                );
            }
            assert!(b.take_report().total() > 0.0);
        }
    }
}
