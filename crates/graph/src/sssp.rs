//! Single-source shortest paths over the tropical `(min, +)` semiring.
//!
//! Delta-free Bellman–Ford in GraphBLAS form: the frontier holds vertices
//! whose tentative distance improved last round; one `SpMSpV` over
//! `(min, +)` relaxes all their out-edges; improvements re-enter the
//! frontier. Terminates after at most `V` rounds on graphs with
//! non-negative weights (and detects negative cycles otherwise).
//!
//! One implementation, [`sssp_on`], generic over [`GblasBackend`], any
//! [`EdgeWeight`] value type (the matrix is cast to `f64` weights with one
//! local `Apply` before the relaxation loop), the number `k ≥ 0` of
//! sources it relaxes from at once (in lockstep, one round per iteration;
//! a single source is a batch of one) and an optional per-round
//! [`SelectionPolicy`], which each source applies to its own counts.

use crate::policy::Chooser;
use gblas_core::algebra::{semirings, Scalar};
use gblas_core::backend::GblasBackend;
use gblas_core::container::DenseVec;
use gblas_core::error::{GblasError, Result};
use gblas_core::ops::selection::{Direction, SelectionPolicy};
use gblas_core::ops::spmspv::SpMSpVOpts;

/// A scalar that can serve as an edge weight: anything with a lossless-
/// enough cast to `f64` for tropical-semiring arithmetic. This is what
/// lets [`sssp_on`] accept the same `T: Scalar` matrices as every other
/// algorithm instead of hardcoding `CsrMatrix<f64>`.
pub trait EdgeWeight: Scalar {
    /// The edge weight as an `f64` (structure-only types map to 1).
    fn as_weight(self) -> f64;
}

macro_rules! weight_as {
    ($($t:ty),*) => {$(
        impl EdgeWeight for $t {
            fn as_weight(self) -> f64 {
                self as f64
            }
        }
    )*};
}
weight_as!(f64, f32, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl EdgeWeight for bool {
    fn as_weight(self) -> f64 {
        1.0
    }
}

/// Bellman–Ford relaxation over any backend from each of `sources` (`k ≥
/// 0` of them, duplicates allowed) at once, returning one distance vector
/// and one decision log per source, batch order. Tentative distances are
/// driver-side control state; each round relaxes the out-edges of the
/// vertices that improved last round, and the improvements (checked in
/// ascending vertex order) form the next frontier. At most `V` rounds
/// run: a `(V+1)`-th about to start means a negative cycle and is an
/// error.
///
/// `policy = None` is the static driver: every round is one `(min, +)`
/// SpMSpV over all `k` frontiers and the decision logs come back empty.
/// `Some(policy)` gives every source its own per-round choice between that
/// push and a pull that relaxes **every** edge with a dense `(min, +)`
/// SpMV: the slots that push share one push under `opts`, and the slots
/// that pull share one `k`-column SpMV. A slot whose frontier is empty
/// decides nothing and rides along in the push. The two directions make
/// exactly the same improvements (a settled `u` already satisfies
/// `dist[j] ≤ dist[u] + w`, so the dense min is attained on frontier terms
/// whenever it improves — exact `f64` equality, no tolerance), so slot `s`
/// makes the decisions, and returns the distances, of the run from
/// `sources[s]` alone.
pub fn sssp_on<B: GblasBackend, T: EdgeWeight>(
    backend: &B,
    a: &B::Matrix<T>,
    sources: &[usize],
    policy: Option<SelectionPolicy>,
    opts: SpMSpVOpts,
) -> Result<Vec<(DenseVec<f64>, Vec<Direction>)>> {
    let n = crate::check_square(backend, a, sources)?;
    let k = sources.len();
    let new_chooser = || Chooser::new(backend, a, "sssp", Direction::Push, policy);
    let mut choosers: Vec<Chooser> = sources.iter().map(|_| new_chooser()).collect();
    let w: B::Matrix<f64> = backend.mat_map(a, &|_, _, v| v.as_weight())?;
    let ring = semirings::min_plus();
    let mut dist = vec![vec![f64::INFINITY; n]; k];
    for (s, &src) in sources.iter().enumerate() {
        dist[s][src] = 0.0;
    }
    let mut frontier: Vec<B::SparseVec<f64>> = sources
        .iter()
        .map(|&src| backend.sparse_from_sorted(n, vec![src], vec![0.0]))
        .collect::<Result<_>>()?;
    let mut rounds = 0usize;
    while frontier.iter().any(|f| backend.sparse_nnz(f) > 0) {
        if rounds == n {
            return Err(GblasError::InvalidArgument(
                "sssp did not converge within V rounds (negative cycle?)".into(),
            ));
        }
        // A slot whose frontier is empty decides nothing and rides along in
        // the push.
        let (mut push, mut pull) = (Vec::new(), Vec::new());
        for (s, f) in frontier.drain(..).enumerate() {
            let nnz_f = backend.sparse_nnz(&f);
            let unsettled = || dist[s].iter().filter(|d| d.is_infinite()).count();
            if nnz_f > 0
                && choosers[s].choose(backend, rounds, nnz_f, unsettled)? == Direction::Pull
            {
                pull.push(s);
            } else {
                push.push((s, f));
            }
        }
        rounds += 1;
        let mut relaxed: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        let (slots, xs): (Vec<usize>, Vec<B::SparseVec<f64>>) = push.into_iter().unzip();
        // With no slot left to push, the riders skip it: an empty frontier
        // relaxes nothing.
        if xs.iter().any(|x| backend.sparse_nnz(x) > 0) {
            let ys: Vec<B::SparseVec<f64>> = backend.spmspv(&w, &xs, &ring, None, opts)?;
            for (&s, y) in slots.iter().zip(&ys) {
                relaxed[s] = backend.sparse_entries(y);
            }
        }
        if !pull.is_empty() {
            let xs: Vec<_> =
                pull.iter().map(|&s| backend.dense_from_vec(dist[s].clone())).collect();
            let ys: Vec<B::DenseVec<f64>> = backend.spmv(&w, &xs, &ring)?;
            for (&s, y) in pull.iter().zip(ys) {
                let reached = backend.dense_to_vec(y).into_iter().enumerate();
                relaxed[s] = reached.filter(|(_, d)| d.is_finite()).collect();
            }
        }
        for (dist, relaxed) in dist.iter_mut().zip(relaxed) {
            let mut next_i = Vec::new();
            let mut next_v = Vec::new();
            for (j, d) in relaxed {
                if d < dist[j] {
                    dist[j] = d;
                    next_i.push(j);
                    next_v.push(d);
                }
            }
            frontier.push(backend.sparse_from_sorted(n, next_i, next_v)?);
        }
    }
    let dists = dist.into_iter().map(DenseVec::from_vec);
    Ok(dists.zip(choosers.into_iter().map(|c| c.decisions)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::backend::SharedBackend;
    use gblas_core::container::CsrMatrix;
    use gblas_core::gen;
    use gblas_core::ops::spmspv::MergeStrategy;
    use gblas_core::par::ExecCtx;
    use gblas_dist::ops::spmspv::CommStrategy;
    use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};
    use gblas_sim::MachineConfig;

    /// Dijkstra reference.
    fn reference(a: &CsrMatrix<f64>, source: usize) -> Vec<f64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = a.nrows();
        let mut dist = vec![f64::INFINITY; n];
        dist[source] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((ordered_float(0.0), source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let d = d as f64 / SCALE;
            if d > dist[u] {
                continue;
            }
            let (cols, vals) = a.row(u);
            for (&v, &w) in cols.iter().zip(vals) {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((ordered_float(nd), v)));
                }
            }
        }
        dist
    }

    const SCALE: f64 = 1e9;
    fn ordered_float(x: f64) -> u64 {
        (x * SCALE) as u64
    }

    #[test]
    fn matches_dijkstra_on_random_weighted_graphs() {
        for seed in [1u64, 2, 3] {
            let a = gen::erdos_renyi(200, 5, seed); // weights in [0, 1)
            let ctx = ExecCtx::with_threads(2);
            let b = SharedBackend::new(&ctx);
            let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
            let expect = reference(&a, 0);
            for v in 0..200 {
                if expect[v].is_infinite() {
                    assert!(dist[v].is_infinite(), "seed {seed} vertex {v}");
                } else {
                    assert!(
                        (dist[v] - expect[v]).abs() < 1e-6,
                        "seed {seed} vertex {v}: {} vs {}",
                        dist[v],
                        expect[v]
                    );
                }
            }
        }
    }

    #[test]
    fn path_graph_distances() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)]).unwrap();
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
        assert_eq!(dist.as_slice(), &[0.0, 2.0, 5.0, 9.0]);
    }

    #[test]
    fn integer_weights_via_edge_weight_cast() {
        // The same path graph with u32 weights: hop costs 2, 3, 4.
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 2u32), (1, 2, 3), (2, 3, 4)]).unwrap();
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
        assert_eq!(dist.as_slice(), &[0.0, 2.0, 5.0, 9.0]);
    }

    #[test]
    fn bool_weights_count_hops() {
        let a =
            CsrMatrix::from_triplets(4, 4, &[(0, 1, true), (1, 2, true), (2, 3, true)]).unwrap();
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
        assert_eq!(dist.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn takes_the_shorter_of_two_routes() {
        // 0 -> 2 direct (10.0) vs 0 -> 1 -> 2 (1.0 + 2.0)
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
        assert_eq!(dist[2], 3.0);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0)]).unwrap();
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
        assert!(dist[2].is_infinite());
    }

    #[test]
    fn source_out_of_range_is_error() {
        let a = CsrMatrix::<f64>::empty(2, 2);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        assert!(sssp_on(&b, &a, &[5], None, opts).is_err());
        assert!(sssp_on(&b, &a, &[5], Some(SelectionPolicy::Auto), opts).is_err());
    }

    const POLICIES: [SelectionPolicy; 3] =
        [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];

    #[test]
    fn sssp_exactly_identical_across_policies() {
        let a = gen::erdos_renyi(300, 5, 95);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        let (expect, _) = sssp_on(&b, &a, &[0], None, opts).unwrap().remove(0);
        for policy in POLICIES {
            let (dist, decisions) = sssp_on(&b, &a, &[0], Some(policy), opts).unwrap().remove(0);
            // Bitwise, not approximate: the pull relaxation computes the
            // same f64 min as the push relaxation.
            assert_eq!(dist.as_slice(), expect.as_slice(), "{policy:?}");
            assert!(!decisions.is_empty());
        }
    }

    #[test]
    fn sssp_dist_identical_across_policies() {
        let a = gen::erdos_renyi(250, 5, 96);
        let ctx = ExecCtx::serial();
        let opts = SpMSpVOpts::default();
        let (expect, _) =
            sssp_on(&SharedBackend::new(&ctx), &a, &[7], None, opts).unwrap().remove(0);
        let da = DistCsrMatrix::from_global(&a, ProcGrid::new(2, 2));
        for policy in POLICIES {
            let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
            let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            let (dist, _) = sssp_on(&b, &da, &[7], Some(policy), opts).unwrap().remove(0);
            assert_eq!(dist.as_slice(), expect.as_slice(), "{policy:?}");
        }
    }

    #[test]
    fn bucketed_sssp_matches_sorted_sssp() {
        let a = gen::erdos_renyi(250, 5, 21);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let b = SharedBackend::new(&ctx);
            let (sorted, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
            let bucketed = SpMSpVOpts::with_merge(MergeStrategy::Bucketed);
            let (bucketed, _) = sssp_on(&b, &a, &[0], None, bucketed).unwrap().remove(0);
            assert_eq!(sorted.as_slice(), bucketed.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn bucketed_bulk_sssp_dist_matches_shared() {
        let a = gen::erdos_renyi(250, 5, 11);
        let ctx = ExecCtx::serial();
        let (expect, _) = sssp_on(&SharedBackend::new(&ctx), &a, &[7], None, SpMSpVOpts::default())
            .unwrap()
            .remove(0);
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
        let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
        let bucketed = SpMSpVOpts::with_merge(MergeStrategy::Bucketed);
        let (dist, _) = sssp_on(&b, &da, &[7], None, bucketed).unwrap().remove(0);
        for v in 0..250 {
            if expect[v].is_infinite() {
                assert!(dist[v].is_infinite(), "vertex {v}");
            } else {
                assert!((dist[v] - expect[v]).abs() < 1e-9, "vertex {v}");
            }
        }
        assert!(b.take_report().total() > 0.0);
    }

    #[test]
    fn distributed_matches_shared_at_every_grid() {
        let a = gen::erdos_renyi(250, 5, 11);
        let ctx = ExecCtx::serial();
        let opts = SpMSpVOpts::default();
        let (expect, _) =
            sssp_on(&SharedBackend::new(&ctx), &a, &[7], None, opts).unwrap().remove(0);
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            let (dist, _) = sssp_on(&b, &da, &[7], None, opts).unwrap().remove(0);
            for v in 0..250 {
                if expect[v].is_infinite() {
                    assert!(dist[v].is_infinite(), "grid {pr}x{pc} vertex {v}");
                } else {
                    assert!((dist[v] - expect[v]).abs() < 1e-9, "grid {pr}x{pc} vertex {v}");
                }
            }
            assert!(b.take_report().total() > 0.0);
        }
    }
}
