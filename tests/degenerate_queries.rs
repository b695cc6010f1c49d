//! Degenerate-query hardening: a serving deployment feeds algorithms
//! whatever the request stream contains, so every analytic must answer
//! empty graphs, isolated sources (an empty frontier at level 0),
//! out-of-range sources and duplicate batch entries with a clean `Err`
//! or an empty/zero result — never a panic. All eight algorithms, both
//! backends, both locale executors.

use gblas_core::container::CsrMatrix;
use gblas_core::par::ExecCtx;
use gblas_dist::{DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::{
    betweenness, betweenness_dist, bfs, bfs_dist, bfs_multi, bfs_multi_dist, connected_components,
    connected_components_dist, core_numbers, core_numbers_dist, maximal_independent_set,
    maximal_independent_set_dist, pagerank, pagerank_dist_on, ppr_multi, ppr_multi_dist, sssp,
    sssp_dist, sssp_multi, sssp_multi_dist, triangle_count, triangle_count_dist, PageRankOptions,
    PprOptions,
};
use gblas_sim::MachineConfig;

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];

fn dctx(grid: ProcGrid, executor: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    d.set_executor(executor);
    d
}

fn empty() -> CsrMatrix<f64> {
    CsrMatrix::empty(0, 0)
}

/// Vertices 3 and 4 are isolated (no edges at all); vertex 2 has only an
/// in-edge, so its frontier is empty at level 0.
fn with_isolated() -> CsrMatrix<f64> {
    CsrMatrix::from_triplets(5, 5, &[(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)]).unwrap()
}

#[test]
fn empty_graph_all_eight_algorithms_shared() {
    let a = empty();
    let ctx = ExecCtx::serial();
    // source-based queries: source 0 is out of range on n = 0 -> clean Err
    assert!(bfs(&a, 0, &ctx).is_err());
    assert!(sssp(&a, 0, &ctx).is_err());
    assert!(betweenness(&a, &[0], &ctx).is_err());
    // whole-graph queries: empty/zero results
    let (pr, _) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
    assert!(pr.is_empty());
    assert!(connected_components(&a, &ctx).unwrap().is_empty());
    assert_eq!(triangle_count(&a, &ctx).unwrap(), 0);
    assert!(core_numbers(&a, &ctx).unwrap().is_empty());
    assert!(maximal_independent_set(&a, 1, &ctx).unwrap().is_empty());
    assert!(betweenness(&a, &[], &ctx).unwrap().is_empty());
    // batched queries with an empty batch
    assert!(bfs_multi(&a, &[], &ctx).unwrap().is_empty());
    assert!(sssp_multi(&a, &[], &ctx).unwrap().is_empty());
    assert!(ppr_multi(&a, &[], PprOptions::default(), &ctx).unwrap().scores.is_empty());
}

#[test]
fn empty_graph_all_eight_algorithms_dist() {
    let a = empty();
    let da = DistCsrMatrix::from_global(&a, ProcGrid::new(2, 2));
    let grid = ProcGrid::new(2, 2);
    for executor in EXECUTORS {
        assert!(bfs_dist(&da, 0, &dctx(grid, executor)).is_err());
        assert!(sssp_dist(&da, 0, &dctx(grid, executor)).is_err());
        assert!(betweenness_dist(&da, &[0], &dctx(grid, executor)).is_err());
        let (pr, _, _) =
            pagerank_dist_on(&da, PageRankOptions::default(), &dctx(grid, executor)).unwrap();
        assert!(pr.is_empty());
        assert!(connected_components_dist(&da, &dctx(grid, executor)).unwrap().0.is_empty());
        assert_eq!(triangle_count_dist(&da, &dctx(grid, executor)).unwrap().0, 0);
        assert!(core_numbers_dist(&da, &dctx(grid, executor)).unwrap().0.is_empty());
        assert!(maximal_independent_set_dist(&da, 1, &dctx(grid, executor)).unwrap().0.is_empty());
        assert!(bfs_multi_dist(&da, &[], &dctx(grid, executor)).unwrap().0.is_empty());
        assert!(sssp_multi_dist(&da, &[], &dctx(grid, executor)).unwrap().0.is_empty());
        let (r, _) =
            ppr_multi_dist(&da, &[], PprOptions::default(), &dctx(grid, executor)).unwrap();
        assert!(r.scores.is_empty());
    }
}

#[test]
fn isolated_sources_terminate_at_level_zero_shared() {
    let a = with_isolated();
    let ctx = ExecCtx::serial();
    // single-source: the first expansion is empty, traversal stops cleanly
    let r = bfs(&a, 3, &ctx).unwrap();
    assert_eq!(r.reached(), 1);
    let d = sssp(&a, 4, &ctx).unwrap();
    assert_eq!(d.as_slice().iter().filter(|x| x.is_finite()).count(), 1);
    // vertex 2 has an in-edge but no out-edges: same story
    let r = bfs(&a, 2, &ctx).unwrap();
    assert_eq!(r.reached(), 1);
    let bc = betweenness(&a, &[2, 3], &ctx).unwrap();
    assert!(bc.as_slice().iter().all(|&x| x == 0.0));
    // a whole batch of isolated/duplicate sources: empty batched frontier
    // after level 0 on every slot
    let batch = bfs_multi(&a, &[3, 4, 3, 2], &ctx).unwrap();
    for (s, r) in batch.iter().enumerate() {
        assert_eq!(r.reached(), 1, "slot {s}");
    }
    let dists = sssp_multi(&a, &[4, 4, 2], &ctx).unwrap();
    for d in &dists {
        assert_eq!(d.as_slice().iter().filter(|x| x.is_finite()).count(), 1);
    }
    // PPR from a dangling seed: all mass teleports home every iteration
    let r = ppr_multi(&a, &[2, 4], PprOptions::default(), &ctx).unwrap();
    for scores in &r.scores {
        assert!(scores.as_slice().iter().sum::<f64>() > 0.99);
    }
}

#[test]
fn isolated_sources_terminate_at_level_zero_dist() {
    let a = with_isolated();
    for (pr, pc) in [(1, 1), (2, 2)] {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let (batch, _) = bfs_multi_dist(&da, &[3, 4, 3, 2], &dctx(grid, executor)).unwrap();
            for (s, r) in batch.iter().enumerate() {
                assert_eq!(r.reached(), 1, "grid {pr}x{pc} slot {s}");
            }
            let (dists, _) = sssp_multi_dist(&da, &[4, 4, 2], &dctx(grid, executor)).unwrap();
            for d in &dists {
                assert_eq!(d.as_slice().iter().filter(|x| x.is_finite()).count(), 1);
            }
        }
    }
}

#[test]
fn out_of_range_and_duplicate_batches_are_handled() {
    let a = with_isolated();
    let ctx = ExecCtx::serial();
    // any out-of-range source anywhere in the batch fails the whole query
    assert!(bfs_multi(&a, &[0, 99], &ctx).is_err());
    assert!(sssp_multi(&a, &[99], &ctx).is_err());
    assert!(ppr_multi(&a, &[1, 5], PprOptions::default(), &ctx).is_err());
    assert!(betweenness(&a, &[5], &ctx).is_err());
    // duplicates are independent slots with identical answers
    let batch = bfs_multi(&a, &[0, 0, 0], &ctx).unwrap();
    assert_eq!(batch[0], batch[1]);
    assert_eq!(batch[1], batch[2]);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    for executor in EXECUTORS {
        assert!(bfs_multi_dist(&da, &[0, 99], &dctx(grid, executor)).is_err());
        let (batch, _) = bfs_multi_dist(&da, &[0, 0], &dctx(grid, executor)).unwrap();
        assert_eq!(batch[0], batch[1]);
    }
}

/// `BfsResult`'s fields are public, so `validate` meets trees no BFS built:
/// a parent id past the last vertex is an `InvalidArgument`, and `levels`
/// and `parents` of different lengths, or of a length other than the
/// graph's row count, a `DimensionMismatch` — never an index panic.
#[test]
fn bfs_validate_rejects_malformed_trees_without_panicking() {
    use gblas_core::container::DenseVec;
    use gblas_core::error::GblasError::{DimensionMismatch, InvalidArgument};
    use gblas_graph::BfsResult;

    let a = with_isolated();
    let tree = bfs(&a, 0, &ExecCtx::serial()).unwrap();
    tree.validate(&a, 0).unwrap();
    let far = BfsResult { parents: DenseVec::from_vec(vec![0, 99, 0, 7, 7]), ..tree.clone() };
    assert!(matches!(far.validate(&a, 0), Err(InvalidArgument(_))));
    let short = BfsResult { parents: DenseVec::from_vec(vec![0, 0]), ..tree.clone() };
    assert!(matches!(short.validate(&a, 0), Err(DimensionMismatch { .. })));
    for n in [0, 4, 6] {
        let r = BfsResult { levels: DenseVec::filled(n, 0), parents: DenseVec::filled(n, 0) };
        assert!(matches!(r.validate(&a, 0), Err(DimensionMismatch { .. })), "n = {n}");
    }
}

/// A mask of the wrong length is a `DimensionMismatch` at kernel
/// entry, short or long, complemented or not, on both SpMSpV kernels. It
/// used to be read past its end as "not set", so a complemented short mask
/// *allowed* every column beyond it: an all-`true` 10-bit `visited` over
/// ER(50, 4) answered `Ok([10, 19, 20, 24, …])`.
#[test]
fn a_dense_mask_of_the_wrong_length_is_an_error() {
    use gblas_core::algebra::semirings;
    use gblas_core::container::DenseVec;
    use gblas_core::error::GblasError;
    use gblas_core::mask::VecMask;
    use gblas_core::ops::spmspv::{spmspv_first_visitor, spmspv_semiring_masked, SpMSpVOpts};

    let a = gblas_core::gen::erdos_renyi(50, 4, 1);
    let x = gblas_core::gen::random_sparse_vec(50, 12, 2);
    let (ring, opts) = (semirings::plus_times_f64(), SpMSpVOpts::default());
    for threads in [1, 4] {
        let ctx = ExecCtx::new(threads, 2);
        for len in [0, 10, 49, 50, 51, 200] {
            let visited = DenseVec::from_fn(len, |_| true);
            for complemented in [false, true] {
                let mask = VecMask::bitmap(visited.as_slice(), complemented);
                let fv = spmspv_first_visitor(&a, &x, Some(&mask), opts, &ctx);
                let sr = spmspv_semiring_masked(&a, &x, &ring, Some(&mask), opts, &ctx);
                if len == a.ncols() {
                    // an all-`true` mask admits all or, complemented, nothing
                    let all = spmspv_first_visitor(&a, &x, None, opts, &ctx).unwrap();
                    let expect = if complemented { vec![] } else { all.indices().to_vec() };
                    assert_eq!(fv.unwrap().indices(), expect);
                    assert_eq!(sr.unwrap().indices(), expect);
                } else {
                    let what = format!("len={len} complemented={complemented}");
                    assert!(matches!(fv, Err(GblasError::DimensionMismatch { .. })), "{what}");
                    assert!(matches!(sr, Err(GblasError::DimensionMismatch { .. })), "{what}");
                }
            }
        }
    }
}

/// Power-iteration parameters a request can get wrong: a damping factor
/// outside `[0, 1]` or a negative tolerance (NaN counts as both) is a
/// clean `InvalidArgument` on both backends — not 200 iterations of NaN
/// ranks — and an iteration cap of zero is a valid request for the start
/// vector.
#[test]
fn power_iteration_options_are_validated() {
    use gblas_core::GblasError::InvalidArgument;

    let a = with_isolated();
    let ctx = ExecCtx::serial();
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let bad = [(-0.1, 1e-9), (1.5, 1e-9), (f64::NAN, 1e-9), (0.85, -1e-9), (0.85, f64::NAN)];
    for (damping, tolerance) in bad {
        let pr = PageRankOptions { damping, tolerance, ..Default::default() };
        let ppr = PprOptions { damping, tolerance, ..Default::default() };
        let what = format!("damping {damping}, tolerance {tolerance}");
        assert!(matches!(pagerank(&a, pr, &ctx), Err(InvalidArgument(_))), "{what}");
        assert!(matches!(ppr_multi(&a, &[0, 3], ppr, &ctx), Err(InvalidArgument(_))), "{what}");
        for executor in EXECUTORS {
            let d = dctx(grid, executor);
            assert!(matches!(pagerank_dist_on(&da, pr, &d), Err(InvalidArgument(_))), "{what}");
            assert!(
                matches!(ppr_multi_dist(&da, &[0], ppr, &d), Err(InvalidArgument(_))),
                "{what}"
            );
        }
        // checked before the empty-graph shortcut, so a bad request is a
        // bad request whatever the graph
        assert!(pagerank(&empty(), pr, &ctx).is_err(), "{what}");
    }
    // the closed ends of both ranges are fine
    for (damping, tolerance) in [(0.0, 0.0), (1.0, f64::INFINITY)] {
        let pr = PageRankOptions { damping, tolerance, ..Default::default() };
        let (ranks, _) = pagerank(&a, pr, &ctx).unwrap();
        assert!(ranks.as_slice().iter().all(|r| r.is_finite()));
    }
    // no iterations: the uniform vector (the seed indicator for PPR)
    let pr = PageRankOptions { max_iterations: 0, ..Default::default() };
    let ppr = PprOptions { max_iterations: 0, ..Default::default() };
    let (ranks, iters) = pagerank(&a, pr, &ctx).unwrap();
    assert_eq!((ranks.as_slice(), iters), (&[0.2; 5][..], 0));
    let r = ppr_multi(&a, &[3], ppr, &ctx).unwrap();
    assert_eq!((r.scores[0].as_slice(), r.iterations[0]), (&[0.0, 0.0, 0.0, 1.0, 0.0][..], 0));
    for executor in EXECUTORS {
        let (ranks, iters, _) = pagerank_dist_on(&da, pr, &dctx(grid, executor)).unwrap();
        assert_eq!((ranks.as_slice(), iters), (&[0.2; 5][..], 0));
    }
}

/// Markov clustering takes a matrix and four numbers from the request: a
/// non-square matrix is a `DimensionMismatch` whichever side is longer, an
/// inflation that is not a finite positive power or a negative (or NaN)
/// prune threshold or tolerance is an `InvalidArgument` whatever the
/// graph, and the graphs with nothing to cluster — no vertices, no edges,
/// no iterations allowed — get the trivial answer on both backends.
#[test]
fn markov_clustering_checks_its_arguments_and_answers_degenerate_graphs() {
    use gblas_core::GblasError::{DimensionMismatch, InvalidArgument};
    use gblas_dist::MxmAlgo;
    use gblas_graph::{markov_cluster, markov_cluster_dist_with, MclOptions};

    let ctx = ExecCtx::serial();
    let grid = ProcGrid::new(2, 2);
    let on_dist = |a: &CsrMatrix<f64>, opts: MclOptions, executor: LocaleExecutor| {
        markov_cluster_dist_with(a, grid, opts, MxmAlgo::Summa2d, &dctx(grid, executor))
            .map(|(labels, iters, _)| (labels, iters))
    };
    let defaults = MclOptions::default();
    for (nrows, ncols) in [(3, 2), (2, 3)] {
        let a = CsrMatrix::from_triplets(nrows, ncols, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let what = format!("{nrows}x{ncols}");
        assert!(
            matches!(markov_cluster(&a, defaults, &ctx), Err(DimensionMismatch { .. })),
            "{what}"
        );
        for executor in EXECUTORS {
            assert!(
                matches!(on_dist(&a, defaults, executor), Err(DimensionMismatch { .. })),
                "{what}"
            );
        }
    }
    let a = with_isolated();
    let bad = [
        MclOptions { inflation: f64::NAN, ..defaults },
        MclOptions { inflation: 0.0, ..defaults },
        MclOptions { inflation: -1.0, ..defaults },
        MclOptions { inflation: f64::INFINITY, ..defaults },
        MclOptions { prune_threshold: f64::NAN, ..defaults },
        MclOptions { prune_threshold: -1e-4, ..defaults },
        MclOptions { tolerance: f64::NAN, ..defaults },
        MclOptions { tolerance: -1.0, ..defaults },
    ];
    for opts in bad {
        assert!(matches!(markov_cluster(&a, opts, &ctx), Err(InvalidArgument(_))), "{opts:?}");
        // checked before the empty-graph shortcut
        assert!(
            matches!(markov_cluster(&empty(), opts, &ctx), Err(InvalidArgument(_))),
            "{opts:?}"
        );
        for executor in EXECUTORS {
            assert!(matches!(on_dist(&a, opts, executor), Err(InvalidArgument(_))), "{opts:?}");
        }
    }
    // the closed ends of the ranges are fine
    let edges = MclOptions { prune_threshold: 0.0, tolerance: 0.0, max_iterations: 3, ..defaults };
    assert_eq!(markov_cluster(&a, edges, &ctx).unwrap().1, 3);
    // no iterations: the labels of the normalized input, on both backends
    let capped = MclOptions { max_iterations: 0, ..defaults };
    let start = markov_cluster(&a, capped, &ctx).unwrap();
    assert_eq!((start.0.len(), start.1), (5, 0));
    let isolated = CsrMatrix::<f64>::empty(6, 6);
    let singletons = ((0..6).collect::<Vec<usize>>(), 1);
    assert_eq!(markov_cluster(&empty(), defaults, &ctx).unwrap(), (vec![], 0));
    assert_eq!(markov_cluster(&isolated, defaults, &ctx).unwrap(), singletons);
    for executor in EXECUTORS {
        assert_eq!(on_dist(&a, capped, executor).unwrap(), start);
        assert_eq!(on_dist(&empty(), defaults, executor).unwrap(), (vec![], 0));
        assert_eq!(on_dist(&isolated, defaults, executor).unwrap(), singletons);
    }
}

/// A graph that is mostly dangling rows (two thirds of the vertices have
/// no out-edge): the inverse out-degree of a dangling vertex is 0, never
/// ∞, so ranks stay finite, mass is conserved, and the two backends agree
/// with equal iteration counts.
#[test]
fn mostly_dangling_graph_keeps_ranks_finite_and_conserved() {
    let n = 90;
    let a = gblas_core::gen::erdos_renyi(n, 4, 77);
    let a = gblas_core::ops::select::select_mat(&a, &|i, _, _| i % 3 == 0, &ExecCtx::serial());
    let dangling = (0..n).filter(|&i| a.row_nnz(i) == 0).count();
    assert!(2 * dangling >= n, "{dangling} of {n} rows dangle");
    let opts = PageRankOptions::default();
    let (expect, iters) = pagerank(&a, opts, &ExecCtx::new(4, 2)).unwrap();
    assert!(expect.as_slice().iter().all(|r| r.is_finite() && *r > 0.0));
    assert!((expect.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(iters > 1 && iters < opts.max_iterations);
    for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let (ranks, di, _) = pagerank_dist_on(&da, opts, &dctx(grid, executor)).unwrap();
            assert_eq!(di, iters, "grid {pr}x{pc} {executor:?}");
            assert!((ranks.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for v in 0..n {
                assert!((ranks[v] - expect[v]).abs() < 1e-9, "grid {pr}x{pc} vertex {v}");
            }
        }
    }
    // batched PPR on the same graph, one dangling seed and one not
    let r = ppr_multi(&a, &[1, 3], PprOptions::default(), &ExecCtx::serial()).unwrap();
    for scores in &r.scores {
        assert!(scores.as_slice().iter().all(|s| s.is_finite()));
        assert!((scores.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

/// One negative-cycle rule for every SSSP driver: at most `n` relaxation
/// rounds run, and an `(n+1)`-th about to start is `InvalidArgument`. An
/// `n`-vertex path sits exactly on the boundary — `n - 1` rounds settle it
/// and the `n`-th finds nothing to improve — and must still settle.
#[test]
fn sssp_round_bound_is_one_rule_on_every_driver() {
    use gblas_core::error::GblasError;
    use gblas_core::ops::selection::SelectionPolicy;
    use gblas_core::ops::spmspv::SpMSpVOpts;
    use gblas_dist::ops::spmspv::CommStrategy;
    use gblas_graph::{sssp_selected, sssp_selected_dist};

    const POLICIES: [SelectionPolicy; 3] =
        [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];
    let (opts, bulk) = (SpMSpVOpts::default(), CommStrategy::Bulk);
    let diverged = |r: Result<(), GblasError>, who: &str| {
        assert!(matches!(r, Err(GblasError::InvalidArgument(_))), "{who}: {r:?}");
    };

    // 0 -> 1 -> 2 -> 0 with total weight -1: every round improves forever
    let cycle = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1i64), (1, 2, 1), (2, 0, -3)]).unwrap();
    const N: usize = 6;
    let hops: Vec<(usize, usize, i64)> = (1..N).map(|v| (v - 1, v, 2)).collect();
    let path = CsrMatrix::from_triplets(N, N, &hops).unwrap();
    let settled: Vec<f64> = (0..N).map(|v| 2.0 * v as f64).collect();

    let ctx = ExecCtx::serial();
    diverged(sssp(&cycle, 0, &ctx).map(drop), "static");
    diverged(sssp_multi(&cycle, &[0, 2], &ctx).map(drop), "multi");
    assert_eq!(sssp(&path, 0, &ctx).unwrap().as_slice(), &settled[..]);
    for d in sssp_multi(&path, &[0, 0], &ctx).unwrap() {
        assert_eq!(d.as_slice(), &settled[..]);
    }
    for policy in POLICIES {
        diverged(sssp_selected(&cycle, 0, policy, opts, &ctx).map(drop), "selected");
        let (d, decisions) = sssp_selected(&path, 0, policy, opts, &ctx).unwrap();
        assert_eq!(d.as_slice(), &settled[..], "{policy:?}");
        assert_eq!(decisions.len(), N, "{policy:?}: one decision per round");
    }

    let grid = ProcGrid::new(2, 2);
    let dcycle = DistCsrMatrix::from_global(&cycle, grid);
    let dpath = DistCsrMatrix::from_global(&path, grid);
    for executor in EXECUTORS {
        let fresh = || dctx(grid, executor);
        diverged(sssp_dist(&dcycle, 0, &fresh()).map(drop), "dist static");
        diverged(sssp_multi_dist(&dcycle, &[0, 2], &fresh()).map(drop), "dist multi");
        assert_eq!(sssp_dist(&dpath, 0, &fresh()).unwrap().0.as_slice(), &settled[..]);
        for d in sssp_multi_dist(&dpath, &[0, 0], &fresh()).unwrap().0 {
            assert_eq!(d.as_slice(), &settled[..]);
        }
        for policy in POLICIES {
            let run = |a| sssp_selected_dist(a, 0, policy, bulk, opts, &fresh());
            diverged(run(&dcycle).map(drop), "dist selected");
            assert_eq!(run(&dpath).unwrap().0.as_slice(), &settled[..], "{policy:?}");
        }
    }
}

/// Adaptive selection at the degenerate ends: the heuristics must answer
/// n = 0 and single-vertex graphs without panicking, and the full suite
/// of policies must agree there like everywhere else.
#[test]
fn selection_degenerate_graphs_all_policies() {
    use gblas_core::ops::selection::SelectionPolicy;
    use gblas_core::ops::spmspv::SpMSpVOpts;
    use gblas_graph::{bfs_selected, bfs_selected_dist, connected_components_selected};

    const POLICIES: [SelectionPolicy; 3] =
        [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];
    let ctx = ExecCtx::serial();

    // n = 0: source queries Err cleanly, whole-graph queries are empty
    let a = empty();
    for policy in POLICIES {
        assert!(bfs_selected(&a, 0, policy, SpMSpVOpts::default(), &ctx).is_err());
        let (labels, decisions) =
            connected_components_selected(&a, policy, SpMSpVOpts::default(), &ctx).unwrap();
        assert!(labels.is_empty());
        // one convergence round, same as the static driver
        assert_eq!(decisions.len(), 1);
    }

    // single vertex, no edges: one level, traversal stops immediately
    let one = CsrMatrix::<f64>::from_triplets(1, 1, &[]).unwrap();
    for policy in POLICIES {
        let (r, decisions) = bfs_selected(&one, 0, policy, SpMSpVOpts::default(), &ctx).unwrap();
        assert_eq!(r.reached(), 1, "{policy:?}");
        assert_eq!(decisions.len(), 1, "{policy:?}");
    }

    // isolated and sink sources: empty frontier after level 0
    let a = with_isolated();
    for source in [2, 3, 4] {
        for policy in POLICIES {
            let (r, _) = bfs_selected(&a, source, policy, SpMSpVOpts::default(), &ctx).unwrap();
            assert_eq!(r.reached(), 1, "source {source} under {policy:?}");
        }
    }

    // the same degenerate shapes on the distributed backend
    use gblas_dist::ops::spmspv::CommStrategy;
    for (p_r, p_c) in [(1, 1), (2, 2)] {
        let grid = ProcGrid::new(p_r, p_c);
        let done = DistCsrMatrix::from_global(&one, grid);
        for executor in EXECUTORS {
            for policy in POLICIES {
                let (r, decisions, _) = bfs_selected_dist(
                    &done,
                    0,
                    policy,
                    CommStrategy::Bulk,
                    SpMSpVOpts::default(),
                    &dctx(grid, executor),
                )
                .unwrap();
                assert_eq!(r.reached(), 1, "grid {p_r}x{p_c} {policy:?}");
                assert_eq!(decisions.len(), 1);
            }
        }
    }
}

/// The decision function exactly at its thresholds: the documented
/// comparisons are `>=` (pull trigger) and strict `<` (push trigger), so
/// equality flips to pull / not-push — and a
/// decision is always a fixed point (feeding it back as `prev` repeats
/// it), which is what rules out push/pull oscillation at any stationary
/// frontier density.
#[test]
fn selection_thresholds_exact_boundaries_and_no_oscillation() {
    use gblas_core::ops::selection::{decide, Direction, SelectionPolicy, SelectionThresholds};

    let t = SelectionThresholds::default(); // alpha 14, beta 24, ref 8
    let auto = SelectionPolicy::Auto;

    // pull trigger at exactly nnz*deg*alpha == unexplored*ref:
    // 4*4*14 = 224 == 28*8 -> pull (and n = 96 keeps the push trigger off)
    assert_eq!(decide(auto, Direction::Push, 4, 28, 96, 4, &t), Direction::Pull);
    // one more unexplored vertex and the edge estimate falls short
    assert_eq!(decide(auto, Direction::Push, 4, 29, 96, 4, &t), Direction::Push);

    // push trigger is strict: nnz*beta == n stays pull, one less flips
    assert_eq!(decide(auto, Direction::Pull, 4, 28, 96, 4, &t), Direction::Pull);
    assert_eq!(decide(auto, Direction::Pull, 3, 28, 96, 4, &t), Direction::Push);

    // n = 0 / empty frontier: decide answers without panicking
    assert_eq!(decide(auto, Direction::Push, 0, 0, 0, 0, &t), Direction::Push);

    // fixed point: at any density (including exactly at the thresholds),
    // re-deciding with the previous answer never flips it back
    for p in [1usize, 4, 64] {
        let tp = SelectionThresholds::for_locales(p);
        for nnz in 0..=96usize {
            for prev in [Direction::Push, Direction::Pull] {
                let d1 = decide(auto, prev, nnz, 96 - nnz, 96, 4, &tp);
                let d2 = decide(auto, d1, nnz, 96 - nnz, 96, 4, &tp);
                assert_eq!(d2, d1, "p={p} nnz={nnz} prev={prev:?}");
            }
        }
    }
}

/// A full frontier (every vertex active at once, the complete graph's
/// second level) pulls, and every policy still
/// agrees with the static driver.
#[test]
fn selection_full_frontier_complete_graph() {
    use gblas_core::ops::selection::{Direction, SelectionPolicy};
    use gblas_core::ops::spmspv::SpMSpVOpts;
    use gblas_graph::{bfs, bfs_selected};

    const N: usize = 24;
    let mut triplets = Vec::new();
    for i in 0..N {
        for j in 0..N {
            if i != j {
                triplets.push((i, j, 1.0));
            }
        }
    }
    let a = CsrMatrix::from_triplets(N, N, &triplets).unwrap();
    let ctx = ExecCtx::serial();
    let expect = bfs(&a, 0, &ctx).unwrap();
    let mut auto_decisions = Vec::new();
    for policy in [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull] {
        let (r, decisions) = bfs_selected(&a, 0, policy, SpMSpVOpts::default(), &ctx).unwrap();
        assert_eq!(r, expect, "{policy:?}");
        if policy == SelectionPolicy::Auto {
            auto_decisions = decisions;
        }
    }
    // two levels: the single source, then all n-1 others at once
    assert_eq!(auto_decisions.len(), 2);
    assert_eq!(auto_decisions[1], Direction::Pull, "a full frontier must pull");
}

#[test]
fn serving_harness_survives_degenerate_streams() {
    use gblas_bench::serve::{
        generate_requests, simulate_serving, ArrivalDist, ArrivalSpec, ServePolicy,
    };
    // zero requests: an empty report, not a division by zero
    let report =
        simulate_serving("empty", &[], ServePolicy::batch_window(4, 0.01), &mut |_| Ok(0.001))
            .unwrap();
    assert_eq!(report.requests, 0);
    assert_eq!(report.qps, 0.0);
    // a stream over an empty vertex set still generates (source 0 slots)
    let spec = ArrivalSpec { dist: ArrivalDist::Uniform, rate: 100.0 };
    let reqs = generate_requests(3, 0, spec, 1);
    assert!(reqs.iter().all(|r| r.source == 0));
    // a service function that rejects propagates Err instead of panicking
    let reqs = generate_requests(3, 10, spec, 1);
    let res = simulate_serving("err", &reqs, ServePolicy::immediate(), &mut |_| {
        Err(gblas_core::error::GblasError::InvalidArgument("backend down".into()))
    });
    assert!(res.is_err());
}
