//! Determinism regression net: with fixed seeds and serial real execution,
//! every operation — including the distributed ones and their simulated
//! timings — must be bit-for-bit reproducible across runs. This is what
//! makes the figure harness's CSV outputs stable artifacts. Under real
//! threads the push kernel's results *and* its work profile must repeat.

use gblas::prelude::*;
use gblas_core::gen;
use gblas_core::ops::spmspv::{spmspv_first_visitor, MergeStrategy, SpMSpVOpts};
use gblas_dist::ops::spmspv::spmspv_dist;
use gblas_graph::{bfs, bfs_with, pagerank, PageRankOptions};

fn machine(p: usize) -> MachineConfig {
    MachineConfig::edison_cluster(p, 24)
}

#[test]
fn generators_are_deterministic() {
    assert_eq!(gen::erdos_renyi(500, 5, 1), gen::erdos_renyi(500, 5, 1));
    assert_eq!(gen::rmat(9, 8, 2), gen::rmat(9, 8, 2));
    assert_eq!(gen::random_sparse_vec(100, 30, 3), gen::random_sparse_vec(100, 30, 3));
    assert_eq!(gen::random_dense_bool(100, 0.5, 4), gen::random_dense_bool(100, 0.5, 4));
}

#[test]
fn shared_memory_op_results_and_profiles_repeat() {
    let a = gen::erdos_renyi(300, 6, 5);
    let x = gen::random_sparse_vec(300, 40, 6);
    let run = || {
        let ctx = ExecCtx::simulated(16);
        let y = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).unwrap();
        (y, ctx.take_profile())
    };
    let (y1, p1) = run();
    let (y2, p2) = run();
    assert_eq!(y1, y2);
    assert_eq!(p1, p2, "work profiles must repeat exactly");
}

/// BFS parents are the minimum in-frontier in-neighbour, not whichever
/// thread arrived first: indices *and* values are a function of the input
/// alone, and so is the work — the claim lists merge by owner, so the
/// collected order, the sort's move count and every other counter of every
/// phase are the serial schedule's. A skewed RMAT makes hub columns
/// contested by many frontier rows at once, which is where an
/// arrival-order claim (or cursor) shows its timing.
#[test]
fn first_visitor_results_do_not_depend_on_real_threads() {
    const LOGICAL: usize = 8;
    let a = gen::rmat(11, 8, 21);
    let n = a.nrows();
    let x = gen::random_sparse_vec(n, n / 4, 22);
    let visited = gen::random_dense_bool(n, 0.3, 23);
    let unvisited = VecMask::dense(&visited).complement();
    let serial = ExecCtx::new(LOGICAL, 1);
    for merge in [MergeStrategy::SortBased, MergeStrategy::Bucketed] {
        let opts = SpMSpVOpts::with_merge(merge);
        for mask in [None, Some(&unvisited)] {
            let kernel = |ctx: &ExecCtx| {
                (spmspv_first_visitor(&a, &x, mask, opts, ctx).unwrap(), ctx.take_profile())
            };
            let expect = kernel(&serial);
            for real in [1, 2, 4] {
                let ctx = ExecCtx::new(LOGICAL, real);
                for rep in 0..20 {
                    let masked = mask.is_some();
                    assert_eq!(kernel(&ctx), expect, "{merge:?} masked={masked} {real} {rep}");
                }
            }
        }
        let solve = |ctx: &ExecCtx| (bfs_with(&a, 0, opts, ctx).unwrap(), ctx.take_profile());
        let expect = solve(&serial);
        for real in [1, 2, 4] {
            let ctx = ExecCtx::new(LOGICAL, real);
            for rep in 0..20 {
                assert_eq!(solve(&ctx), expect, "{merge:?} real={real} rep={rep}");
            }
        }
    }
}

#[test]
fn distributed_results_and_simulated_times_repeat() {
    let a = gen::erdos_renyi(400, 8, 7);
    let x = gen::random_sparse_vec(400, 30, 8);
    let grid = ProcGrid::new(2, 4);
    let run = || {
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 8);
        let dctx = DistCtx::new(machine(8));
        spmspv_dist(&da, &dx, &dctx).unwrap()
    };
    let (y1, r1) = run();
    let (y2, r2) = run();
    assert_eq!(y1, y2);
    assert_eq!(r1, r2, "simulated times must repeat bit-for-bit");
}

#[test]
fn algorithms_repeat() {
    let a = gen::erdos_renyi(300, 5, 9);
    let ctx = ExecCtx::serial();
    assert_eq!(bfs(&a, 0, &ctx).unwrap(), bfs(&a, 0, &ctx).unwrap());
    let (pr1, i1) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
    let (pr2, i2) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
    assert_eq!(i1, i2);
    assert_eq!(pr1, pr2);
}

#[test]
fn figure_points_repeat() {
    // One representative scaled-down figure point end to end.
    let figs1 = gblas_bench::figs::fig7(500);
    let figs2 = gblas_bench::figs::fig7(500);
    for (f1, f2) in figs1.iter().zip(&figs2) {
        assert_eq!(f1.series.len(), f2.series.len());
        for (s1, s2) in f1.series.iter().zip(&f2.series) {
            for (p1, p2) in s1.points.iter().zip(&s2.points) {
                assert_eq!(p1.report, p2.report, "{} x={}", f1.id, p1.x);
            }
        }
    }
}
