//! Maximal independent set by Luby's algorithm, in GraphBLAS form.
//!
//! Each round, every candidate vertex draws a random priority; a vertex
//! joins the set when its priority beats all of its neighbours'
//! (a `(max, first)` SpMSpV comparison), and winners' neighbourhoods
//! leave the candidate pool — a second `(max, first)` SpMSpV over the
//! winner set. Expected `O(log n)` rounds. A classic GraphBLAS kernel
//! (it appears in the GraphBLAS API papers the paper cites) exercising
//! sparse vectors, semirings and reductions together.
//!
//! One implementation, [`maximal_independent_set_on`], generic over
//! [`GblasBackend`]. Priorities are drawn driver-side in vertex order, so
//! every backend sees the identical random sequence and the result is
//! deterministic in the seed regardless of substrate.

use gblas_core::algebra::{First, Max, Scalar, Semiring};
use gblas_core::backend::GblasBackend;
use gblas_core::container::DenseVec;
use gblas_core::error::{GblasError, Result};
use gblas_core::ops::spmspv::SpMSpVOpts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Luby rounds over any backend. The candidate pool and the set are
/// driver-side control state; each round is two `(max, first)` SpMSpVs
/// (neighbour-priority comparison, winner-neighbourhood kill) plus one
/// scalar all-reduce for the "pool empty?" decision.
pub fn maximal_independent_set_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    seed: u64,
) -> Result<DenseVec<bool>> {
    let n = crate::check_square(backend, a, &[])?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut in_set = DenseVec::filled(n, false);
    let mut candidate = vec![true; n];
    let prio_ring: Semiring<Max, First> = Semiring::new(Max, First);
    let kill_ring: Semiring<Max, First> = Semiring::new(Max, First);
    let opts = SpMSpVOpts::default();
    let mut rounds = 0usize;
    while candidate.iter().any(|&c| c) {
        rounds += 1;
        if rounds > 4 * (usize::BITS as usize) {
            // Luby terminates in expected O(log n) rounds; blowing far past
            // that means the input breaks the algorithm's contract (e.g. a
            // non-symmetric matrix). Fail the query instead of panicking.
            return Err(GblasError::InvalidArgument(
                "MIS did not terminate within O(log n) rounds (is the matrix symmetric?)".into(),
            ));
        }
        // Draw strictly-positive priorities for the candidates (ties are
        // broken by adding a deterministic per-vertex epsilon).
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        for (v, &is_candidate) in candidate.iter().enumerate() {
            if is_candidate {
                inds.push(v);
                vals.push(1.0 + rng.gen::<f64>() + v as f64 * 1e-15);
            }
        }
        let prio_entries: Vec<(usize, f64)> =
            inds.iter().copied().zip(vals.iter().copied()).collect();
        let prio = backend.sparse_from_sorted(n, inds, vals)?;
        // max neighbour priority among candidates:
        // nbr[j] = max_{i candidate, i->j} prio[i]
        let nbr: Vec<B::SparseVec<f64>> =
            backend.spmspv(a, std::slice::from_ref(&prio), &prio_ring, None, opts)?;
        let nbr_entries = backend.sparse_entries(&crate::only(nbr)?);
        // winners: candidates whose own priority beats every candidate
        // neighbour's (merge-scan: both entry lists are index-sorted)
        let mut winners = Vec::new();
        let mut ni = 0usize;
        for (v, p) in prio_entries {
            while ni < nbr_entries.len() && nbr_entries[ni].0 < v {
                ni += 1;
            }
            let best_nbr = if ni < nbr_entries.len() && nbr_entries[ni].0 == v {
                nbr_entries[ni].1
            } else {
                0.0
            };
            if p > best_nbr {
                winners.push(v);
            }
        }
        debug_assert!(!winners.is_empty(), "some candidate always wins a round");
        // Winners join the set; their neighbourhoods (one more SpMSpV over
        // the winner indicator) leave the pool.
        let wvec = backend.sparse_from_sorted(n, winners.clone(), vec![true; winners.len()])?;
        let killed: Vec<B::SparseVec<bool>> =
            backend.spmspv(a, std::slice::from_ref(&wvec), &kill_ring, None, opts)?;
        for (u, _) in backend.sparse_entries(&crate::only(killed)?) {
            candidate[u] = false;
        }
        for &w in &winners {
            in_set[w] = true;
            candidate[w] = false;
        }
        backend.allreduce_scalar("mis-round")?;
    }
    Ok(in_set)
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

    fn check_mis(a: &CsrMatrix<f64>, set: &DenseVec<bool>) {
        let n = a.nrows();
        // independence: no edge inside the set
        for (i, j, _) in a.iter() {
            assert!(!(set[i] && set[j]), "edge ({i},{j}) inside the set");
        }
        // maximality: every vertex outside the set has a neighbour inside
        for v in 0..n {
            if !set[v] {
                let (cols, _) = a.row(v);
                assert!(cols.iter().any(|&u| set[u]), "vertex {v} could still join the set");
            }
        }
    }

    #[test]
    fn valid_mis_on_random_graphs() {
        for seed in [1u64, 2, 3, 4] {
            let a = gen::erdos_renyi_symmetric(300, 4, seed);
            let ctx = ExecCtx::with_threads(2);
            let set = maximal_independent_set_on(&SharedBackend::new(&ctx), &a, seed * 7).unwrap();
            check_mis(&a, &set);
            assert!(set.as_slice().iter().any(|&b| b), "set must be nonempty");
        }
    }

    #[test]
    fn empty_graph_takes_everything() {
        let a = CsrMatrix::<f64>::empty(10, 10);
        let ctx = ExecCtx::serial();
        let set = maximal_independent_set_on(&SharedBackend::new(&ctx), &a, 1).unwrap();
        assert!(set.as_slice().iter().all(|&b| b));
    }

    #[test]
    fn clique_takes_exactly_one() {
        let k = 8;
        let mut trips = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    trips.push((i, j, 1.0));
                }
            }
        }
        let a = CsrMatrix::from_triplets(k, k, &trips).unwrap();
        let ctx = ExecCtx::serial();
        let set = maximal_independent_set_on(&SharedBackend::new(&ctx), &a, 5).unwrap();
        assert_eq!(set.as_slice().iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = gen::erdos_renyi_symmetric(150, 3, 9);
        let ctx = ExecCtx::serial();
        let s1 = maximal_independent_set_on(&SharedBackend::new(&ctx), &a, 42).unwrap();
        let s2 = maximal_independent_set_on(&SharedBackend::new(&ctx), &a, 42).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn distributed_matches_shared_at_every_grid() {
        let a = gen::erdos_renyi_symmetric(150, 4, 77);
        let ctx = ExecCtx::serial();
        let expect = maximal_independent_set_on(&SharedBackend::new(&ctx), &a, 42).unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let b = DistBackend::new(&dctx);
            let set = maximal_independent_set_on(&b, &da, 42).unwrap();
            assert_eq!(set, expect, "grid {pr}x{pc}");
            assert!(b.take_report().total() > 0.0);
        }
    }
}
