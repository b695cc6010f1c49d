//! k-core decomposition by iterated peeling, in GraphBLAS form.
//!
//! The core number of a vertex is the largest `k` such that the vertex
//! belongs to a subgraph where every vertex has degree ≥ `k`. Peeling is
//! expressed with the library's own primitives: degrees by row-`reduce`,
//! peeling by `select` on the remaining-vertex predicate — a different
//! composition pattern from the frontier algorithms (whole-matrix
//! shrinking instead of vector iteration).
//!
//! One implementation, [`core_numbers_on`], generic over
//! [`GblasBackend`].

use gblas_core::algebra::{Plus, Scalar};
use gblas_core::backend::GblasBackend;
use gblas_core::container::DenseVec;
use gblas_core::error::Result;

/// Peeling over any backend: each round reduces the remaining subgraph's
/// row degrees, decides the peel set driver-side (one scalar all-reduce
/// worth of coordination), and shrinks the matrix with a `select` on the
/// alive predicate.
pub fn core_numbers_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
) -> Result<DenseVec<usize>> {
    let n = crate::check_square(backend, a, &[])?;
    let mut core = DenseVec::filled(n, 0usize);
    if n == 0 {
        return Ok(core);
    }
    let mut alive = vec![true; n];
    let mut remaining: B::Matrix<u64> = backend.mat_map(a, &|_, _, _| 1u64)?;
    let mut k = 0usize;
    // Every vertex is peeled exactly once, so the loop condition is
    // simply "someone is still alive" — the empty graph and the
    // fully-peeled state exit here instead of through in-loop breaks.
    while alive.iter().any(|&x| x) {
        // degrees within the remaining subgraph
        let deg: Vec<u64> = backend.reduce_rows(&remaining, &Plus)?;
        // peel everything of degree < k+1 at the current level; if nothing
        // would remain to peel, advance k
        let next_k = k + 1;
        let peel: Vec<usize> = (0..n).filter(|&v| alive[v] && (deg[v] as usize) < next_k).collect();
        backend.allreduce_scalar("kcore-peel")?;
        if peel.is_empty() {
            k = next_k;
            continue;
        }
        for &v in &peel {
            alive[v] = false;
            core[v] = k;
        }
        let alive_ref = &alive;
        remaining = backend.mat_select(&remaining, &|i, j, _| alive_ref[i] && alive_ref[j])?;
        if backend.mat_nnz(&remaining) == 0 {
            // everything still alive has core number k (or is isolated)
            for v in 0..n {
                if alive[v] {
                    alive[v] = false;
                    core[v] = k;
                }
            }
        }
    }
    Ok(core)
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

    /// Reference: textbook peeling — repeatedly remove a minimum-degree
    /// vertex; a vertex's core number is the running maximum of the
    /// minimum degree seen when it is removed.
    fn reference(a: &CsrMatrix<f64>) -> Vec<usize> {
        let n = a.nrows();
        let mut deg: Vec<usize> = (0..n).map(|i| a.row_nnz(i)).collect();
        let mut core = vec![0usize; n];
        let mut removed = vec![false; n];
        let mut current = 0usize;
        while let Some(v) = (0..n).filter(|&v| !removed[v]).min_by_key(|&v| deg[v]) {
            current = current.max(deg[v]);
            core[v] = current;
            removed[v] = true;
            let (cols, _) = a.row(v);
            for &u in cols {
                if !removed[u] {
                    deg[u] -= 1;
                }
            }
        }
        core
    }

    #[test]
    fn triangle_with_tail() {
        // triangle {0,1,2} plus a pendant 3-2: core numbers [2,2,2,1]
        let mut trips = Vec::new();
        for &(i, j) in &[(0, 1), (1, 2), (0, 2), (2, 3)] {
            trips.push((i, j, 1.0));
            trips.push((j, i, 1.0));
        }
        let a = CsrMatrix::from_triplets(4, 4, &trips).unwrap();
        let ctx = ExecCtx::serial();
        let core = core_numbers_on(&SharedBackend::new(&ctx), &a).unwrap();
        assert_eq!(core.as_slice(), &[2, 2, 2, 1]);
    }

    #[test]
    fn clique_core_is_k_minus_one() {
        let k = 6;
        let mut trips = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    trips.push((i, j, 1.0));
                }
            }
        }
        let a = CsrMatrix::from_triplets(k, k, &trips).unwrap();
        let ctx = ExecCtx::with_threads(2);
        let core = core_numbers_on(&SharedBackend::new(&ctx), &a).unwrap();
        assert!(core.as_slice().iter().all(|&c| c == k - 1));
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let a = gen::erdos_renyi_symmetric(80, 4, seed);
            let ctx = ExecCtx::serial();
            let core = core_numbers_on(&SharedBackend::new(&ctx), &a).unwrap();
            let expect = reference(&a);
            assert_eq!(core.as_slice(), &expect[..], "seed {seed}");
        }
    }

    #[test]
    fn empty_graph_is_ok() {
        let a = CsrMatrix::<f64>::empty(0, 0);
        let core = core_numbers_on(&SharedBackend::new(&ExecCtx::serial()), &a).unwrap();
        assert!(core.is_empty());
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let a = CsrMatrix::<f64>::empty(5, 5);
        let ctx = ExecCtx::serial();
        let core = core_numbers_on(&SharedBackend::new(&ctx), &a).unwrap();
        assert!(core.as_slice().iter().all(|&c| c == 0));
    }

    #[test]
    fn distributed_matches_shared_at_every_grid() {
        let a = gen::erdos_renyi_symmetric(120, 4, 73);
        let ctx = ExecCtx::serial();
        let expect = core_numbers_on(&SharedBackend::new(&ctx), &a).unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let b = DistBackend::new(&dctx);
            let core = core_numbers_on(&b, &da).unwrap();
            assert_eq!(core, expect, "grid {pr}x{pc}");
            assert!(b.take_report().total() > 0.0);
        }
    }
}
