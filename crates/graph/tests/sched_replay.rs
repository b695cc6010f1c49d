//! Inspector–executor schedules across the iterative drivers: every
//! distributed algorithm runs one `DistCtx`, so the communication plan a
//! kernel inspects on iteration 1 must *replay* on every later iteration
//! (`sched_replays ≥ iterations − 1`), and disabling schedules must be
//! bit-invisible in the results.

use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};
use gblas_graph::bfs::bfs_dist_with;
use gblas_graph::cc::connected_components_on;
use gblas_graph::multi::bfs_multi_dist;
use gblas_graph::pagerank::{pagerank_dist_on, PageRankOptions};
use gblas_graph::sssp::sssp_on;
use gblas_sim::MachineConfig;

fn dctx_for(grid: ProcGrid, schedules: bool) -> DistCtx {
    let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_schedules(schedules);
    dctx
}

#[test]
fn bfs_builds_once_and_replays_every_later_level() {
    let a = gen::erdos_renyi(400, 6, 901);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dctx = dctx_for(grid, true);
    let (result, _) =
        bfs_dist_with(&da, 0, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx).unwrap();
    let max_level = *result.levels.as_slice().iter().max().unwrap();
    assert!(max_level >= 2, "graph too shallow for a replay test");
    let m = dctx.metrics().snapshot();
    // one inspection for the whole traversal, then pure replay: the loop
    // runs one kernel per level plus the final empty-frontier call
    assert_eq!(m.sched_builds, 1, "BFS must inspect exactly once");
    assert!(
        m.sched_replays >= max_level as u64,
        "sched_replays {} < iterations-1 {}",
        m.sched_replays,
        max_level
    );
    assert_eq!(m.sched_invalidations, 0);
}

#[test]
fn pagerank_replays_across_power_iterations() {
    let a = gen::erdos_renyi(300, 6, 902);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dctx = dctx_for(grid, true);
    let (_, iters, _) = pagerank_dist_on(&da, PageRankOptions::default(), &dctx).unwrap();
    assert!(iters >= 2, "PageRank converged too fast for a replay test");
    let m = dctx.metrics().snapshot();
    assert!(
        m.sched_replays >= (iters as u64) - 1,
        "sched_replays {} < iterations-1 {}",
        m.sched_replays,
        iters - 1
    );
}

#[test]
fn cc_and_sssp_replay_their_round_kernels() {
    let a = gen::erdos_renyi(300, 5, 903);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);

    let dctx = dctx_for(grid, true);
    connected_components_on(&DistBackend::new(&dctx), &da, None, SpMSpVOpts::default()).unwrap();
    let m = dctx.metrics().snapshot();
    assert!(m.sched_replays >= 1, "CC rounds must replay: {m:?}");

    let aw = gen::erdos_renyi(300, 5, 904);
    let daw = DistCsrMatrix::from_global(&aw, grid);
    let dctx = dctx_for(grid, true);
    let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
    sssp_on(&b, &daw, &[0], None, SpMSpVOpts::default()).unwrap();
    let m = dctx.metrics().snapshot();
    assert!(m.sched_replays >= 1, "SSSP rounds must replay: {m:?}");
}

#[test]
fn batched_bfs_replays_its_fused_gather() {
    let a = gen::erdos_renyi(350, 6, 905);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dctx = dctx_for(grid, true);
    let (results, _) = bfs_multi_dist(&da, &[0, 7, 21], &dctx).unwrap();
    assert_eq!(results.len(), 3);
    let m = dctx.metrics().snapshot();
    // one plan for the whole batch width, replayed every later level
    assert_eq!(m.sched_builds, 1, "batched expand must inspect once: {m:?}");
    assert!(m.sched_replays >= 1, "batched expand must replay: {m:?}");
}

#[test]
fn disabling_schedules_is_bit_invisible_and_counts_nothing() {
    let a = gen::erdos_renyi(400, 6, 906);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);

    let d_on = dctx_for(grid, true);
    let (r_on, _) =
        bfs_dist_with(&da, 0, CommStrategy::Bulk, SpMSpVOpts::default(), &d_on).unwrap();
    let d_off = dctx_for(grid, false);
    let (r_off, _) =
        bfs_dist_with(&da, 0, CommStrategy::Bulk, SpMSpVOpts::default(), &d_off).unwrap();

    assert_eq!(r_on, r_off, "schedule replay changed BFS output");
    assert_eq!(d_on.comm.totals(), d_off.comm.totals(), "replay changed comm accounting");
    let m = d_off.metrics().snapshot();
    assert_eq!(
        (m.sched_builds, m.sched_replays, m.sched_invalidations),
        (0, 0, 0),
        "disabled schedules must not move the sched metrics"
    );
}

#[test]
fn a_rebuilt_matrix_invalidates_the_cached_plan() {
    let a = gen::erdos_renyi(300, 5, 907);
    let grid = ProcGrid::new(2, 2);
    let dctx = dctx_for(grid, true);

    let da1 = DistCsrMatrix::from_global(&a, grid);
    let (r1, _) = bfs_dist_with(&da1, 0, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx).unwrap();
    // same content, fresh generation stamp: the cached plan must not be
    // trusted across a rebuild
    let da2 = DistCsrMatrix::from_global(&a, grid);
    let (r2, _) = bfs_dist_with(&da2, 0, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx).unwrap();
    assert_eq!(r1, r2);
    let m = dctx.metrics().snapshot();
    assert!(m.sched_invalidations >= 1, "generation change must invalidate: {m:?}");
    assert_eq!(m.sched_builds, 2, "one inspection per matrix generation: {m:?}");
}
