//! Determinism regression net: with fixed seeds and serial real execution,
//! every operation — including the distributed ones and their simulated
//! timings — must be bit-for-bit reproducible across runs. This is what
//! makes the figure harness's CSV outputs stable artifacts. Under real
//! threads the push kernel's results *and* its work profile must repeat,
//! and dense SpMV — hence PageRank — must not see thread counts at all.

use gblas::prelude::*;
use gblas_core::backend::SharedBackend;
use gblas_core::gen;
use gblas_core::ops::spmspv::{spmspv_first_visitor, MergeStrategy, SpMSpVOpts};
use gblas_core::ops::spmv::{self, spmv_col};
use gblas_dist::ops::spmspv::{spmspv_dist, CommStrategy};
use gblas_dist::{DistBackend, LocaleExecutor};
use gblas_graph::{
    bfs, bfs_with, pagerank, pagerank_dist_on, ppr_multi_on, PageRankOptions, PprOptions,
};

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

/// Every (logical, real) thread pairing the invariance tests sweep; the
/// first is the serial reference.
fn thread_sweep() -> Vec<ExecCtx> {
    let counts = [1, 2, 8, 24].into_iter().flat_map(|t| [(t, 1), (t, 2)]);
    counts.map(|(t, r)| ExecCtx::new(t, r)).collect()
}

fn bits(v: &DenseVec<f64>) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `spmv_col` reads its accumulator count off the matrix (one per `6·ncols`
/// stored entries — four here), so neither the bits of a result nor a
/// counter of its profile may move with the logical or the real thread
/// count, on a float semiring that would show any re-association.
#[test]
fn spmv_col_results_and_profiles_do_not_depend_on_thread_counts() {
    let a = gen::erdos_renyi(600, 28, 31);
    let pattern = a.with_values(vec![true; a.nnz()]);
    let x = DenseVec::from_fn(600, |i| 1.0 / (1 + i % 13) as f64);
    let reached = DenseVec::from_fn(600, |i| i % 3 == 0);
    let kernels = |ctx: &ExecCtx| {
        let times: DenseVec<f64> = spmv_col(&a, &x, &semirings::plus_times_f64(), ctx).unwrap();
        let first: DenseVec<f64> = spmv_col(&a, &x, &semirings::plus_first(), ctx).unwrap();
        let or_and: DenseVec<bool> =
            spmv_col(&pattern, &reached, &semirings::plus_times::<bool>(), ctx).unwrap();
        (bits(&times), bits(&first), or_and, ctx.take_profile())
    };
    let ctxs = thread_sweep();
    let expect = kernels(&ctxs[0]);
    let spmv_phase = expect.3.phase(spmv::PHASE);
    assert!(spmv_phase.tasks >= 3 * 3, "three calls of at least three accumulators each");
    for ctx in &ctxs[1..] {
        for rep in 0..5 {
            assert_eq!(kernels(ctx), expect, "{ctx:?} rep {rep}");
        }
    }
}

/// What the kernel's invariance buys the algorithms: PageRank and batched
/// personalized PageRank are bit-identical under every thread pairing, and
/// the 1×1 grid — one block, the whole matrix — equals them under both
/// executors. (Grids with more block rows add one combine per row; their
/// bits are pinned in `pagerank_digest`.)
#[test]
fn pagerank_ranks_do_not_depend_on_thread_counts() {
    let a = gen::erdos_renyi(400, 26, 33);
    assert!(a.nnz() >= 3 * 6 * a.ncols(), "input must take at least three accumulators");
    let seeds = [5, 311, 5];
    let ranks = |(pr, iters): (DenseVec<f64>, usize)| (bits(&pr), iters);
    let batch =
        |r: gblas_graph::PprResult| (r.scores.iter().map(bits).collect::<Vec<_>>(), r.iterations);
    let ctxs = thread_sweep();
    let expect_pr = ranks(pagerank(&a, PageRankOptions::default(), &ctxs[0]).unwrap());
    let ppr =
        |ctx: &ExecCtx| ppr_multi_on(&SharedBackend::new(ctx), &a, &seeds, PprOptions::default());
    let expect_ppr = batch(ppr(&ctxs[0]).unwrap());
    for ctx in &ctxs[1..] {
        let pr = ranks(pagerank(&a, PageRankOptions::default(), ctx).unwrap());
        assert_eq!(pr, expect_pr, "pagerank {ctx:?}");
        assert_eq!(batch(ppr(ctx).unwrap()), expect_ppr, "ppr_multi {ctx:?}");
    }
    let da = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 1));
    for executor in [LocaleExecutor::Serial, LocaleExecutor::Threaded] {
        let mut dctx = DistCtx::new(machine(1));
        dctx.set_executor(executor);
        let (pr, iters, _) = pagerank_dist_on(&da, PageRankOptions::default(), &dctx).unwrap();
        assert_eq!((bits(&pr), iters), expect_pr, "pagerank dist 1x1 {executor:?}");
        let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
        let r = ppr_multi_on(&b, &da, &seeds, PprOptions::default()).unwrap();
        assert_eq!(batch(r), expect_ppr, "ppr_multi dist 1x1 {executor:?}");
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
    let figs1 = gblas_bench::figs::fig7_with(500, gblas_bench::figs::PAPER_MERGE);
    let figs2 = gblas_bench::figs::fig7_with(500, gblas_bench::figs::PAPER_MERGE);
    for (f1, f2) in figs1.iter().zip(&figs2) {
        assert_eq!(f1.series.len(), f2.series.len());
        for (s1, s2) in f1.series.iter().zip(&f2.series) {
            for (p1, p2) in s1.points.iter().zip(&s2.points) {
                assert_eq!(p1.report, p2.report, "{} x={}", f1.id, p1.x);
            }
        }
    }
}
