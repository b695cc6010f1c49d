//! Failure injection: every communication-bearing distributed operation
//! must surface an injected fault as `GblasError::CommFailure` (never a
//! silent wrong answer), and the retry helper must recover transient ones.

use gblas::prelude::*;
use gblas_core::gen;
use gblas_dist::ops as dops;

fn machine(p: usize) -> MachineConfig {
    MachineConfig::edison_cluster(p, 24)
}

#[test]
fn apply_v1_fault_propagates() {
    let v = gen::random_sparse_vec(1000, 300, 1);
    let mut d = DistSparseVec::from_global(&v, 4);
    let dctx = DistCtx::new(machine(4));
    dctx.comm.fail_after(0);
    let err = dops::apply::apply_v1(&mut d, &|x: f64| x, &dctx).unwrap_err();
    assert!(matches!(err, GblasError::CommFailure(_)));
}

#[test]
fn spmspv_fault_at_every_event_position_is_surfaced() {
    let a = gen::erdos_renyi(200, 5, 2);
    let x = gen::random_sparse_vec(200, 30, 3);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, 4);
    // count events on a clean run
    let clean = DistCtx::new(machine(4));
    let _ = dops::spmspv::spmspv_dist(&da, &dx, &clean).unwrap();
    let total_events = clean.comm.call_count() as usize;
    assert!(total_events > 0);
    // inject at several positions including first and last
    for pos in [0, total_events / 2, total_events - 1] {
        let dctx = DistCtx::new(machine(4));
        dctx.comm.fail_after(pos as u64);
        let r = dops::spmspv::spmspv_dist(&da, &dx, &dctx);
        assert!(matches!(r, Err(GblasError::CommFailure(_))), "fault at event {pos} not surfaced");
    }
}

#[test]
fn retry_wrapper_recovers_a_transient_fault() {
    let b = gen::random_sparse_vec(500, 100, 4);
    let bd = DistSparseVec::from_global(&b, 4);
    let dctx = DistCtx::new(machine(4));
    dctx.comm.fail_after(2); // third transfer fails once
    let result = dctx
        .comm
        .with_retry(2, || {
            let mut a = DistSparseVec::empty(500, 4);
            dops::assign::assign_v1(&mut a, &bd, &dctx)?;
            Ok(a)
        })
        .unwrap();
    assert_eq!(result.to_global(), b);
    assert_eq!(dctx.metrics().snapshot().retries, 1, "the fault costs one retry");
}

#[test]
fn fault_free_runs_after_a_cleared_plan() {
    let b = gen::random_sparse_vec(500, 100, 5);
    let bd = DistSparseVec::from_global(&b, 2);
    let dctx = DistCtx::new(machine(2));
    dctx.comm.fail_after(1_000_000); // armed but far away
    dctx.comm.clear_faults();
    let mut a = DistSparseVec::empty(500, 2);
    dops::assign::assign_v1(&mut a, &bd, &dctx).unwrap();
    assert_eq!(a.to_global(), b);
}

#[test]
fn fault_mid_replay_recovers_without_double_counting() {
    // A fault landing while a *cached* schedule replays must surface as
    // `CommFailure`, must not evict or rebuild the plan, and the retry on
    // the same context must move the comm ledger by exactly one clean
    // replay's worth of messages and bytes — no double-counted traffic.
    let a = gen::erdos_renyi(250, 5, 7);
    let x = gen::random_sparse_vec(250, 35, 8);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, 4);

    // Clean baseline: what one replayed run costs.
    let base = DistCtx::new(machine(4));
    dops::spmspv::spmspv_dist_bulk(&da, &dx, &base).unwrap();
    let warm = base.comm.totals();
    let (expect, _) = dops::spmspv::spmspv_dist_bulk(&da, &dx, &base).unwrap();
    let done = base.comm.totals();
    let replay_cost = (done.0 - warm.0, done.1 - warm.1, done.2 - warm.2);
    let calls_per_run = base.comm.call_count() / 2;
    assert!(calls_per_run >= 2, "op too small to fault mid-run");

    // Faulted context: warm run caches the plan, then the fault lands
    // halfway through the replayed run's transfers.
    let dctx = DistCtx::new(machine(4));
    dops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx).unwrap();
    dctx.comm.fail_after(calls_per_run / 2);
    let r = dops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx);
    assert!(matches!(r, Err(GblasError::CommFailure(_))), "mid-replay fault not surfaced: {r:?}");
    let m = dctx.metrics().snapshot();
    assert_eq!(m.sched_builds, 1, "fault must not force a rebuild: {m:?}");
    assert_eq!(m.sched_invalidations, 0, "fault must not invalidate the plan: {m:?}");

    let before = dctx.comm.totals();
    let (retry, _) = dops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx).unwrap();
    let after = dctx.comm.totals();
    assert_eq!(retry.to_global(), expect.to_global(), "retry after mid-replay fault diverged");
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        replay_cost,
        "retry after a mid-replay fault double-counted messages/bytes"
    );
    let m = dctx.metrics().snapshot();
    assert_eq!(m.sched_builds, 1, "retry must replay the surviving plan: {m:?}");
    assert!(m.sched_replays >= 2, "failed attempt and retry both replay: {m:?}");
}

#[test]
fn fault_during_inspection_run_still_caches_a_usable_plan() {
    // The schedule is compiled before any traffic moves, so even a run
    // that faults on its very first transfer leaves a valid cached plan:
    // the retry replays it and matches a clean context bit for bit.
    let a = gen::erdos_renyi(250, 5, 9);
    let x = gen::random_sparse_vec(250, 35, 10);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, 4);

    let clean = DistCtx::new(machine(4));
    let (expect, _) = dops::spmspv::spmspv_dist_bulk(&da, &dx, &clean).unwrap();
    let clean_cost = clean.comm.totals();

    let dctx = DistCtx::new(machine(4));
    dctx.comm.fail_after(0);
    let r = dops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx);
    assert!(matches!(r, Err(GblasError::CommFailure(_))));
    let faulted = dctx.comm.totals();
    let (retry, _) = dops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx).unwrap();
    assert_eq!(retry.to_global(), expect.to_global());
    let after = dctx.comm.totals();
    assert_eq!(
        (after.0 - faulted.0, after.1 - faulted.1, after.2 - faulted.2),
        clean_cost,
        "replay after a faulted inspection run mispriced the traffic"
    );
    let m = dctx.metrics().snapshot();
    assert_eq!(m.sched_builds, 1, "faulted run already inspected: {m:?}");
    assert!(m.sched_replays >= 1, "retry must replay, not re-inspect: {m:?}");
}

#[test]
fn retry_wrapper_replays_the_cached_schedule_across_attempts() {
    // `Comm::with_retry` around a scheduled op: the transient fault consumes one
    // attempt, the second attempt replays the plan cached by the first.
    let a = gen::erdos_renyi(250, 5, 11);
    let x = gen::random_sparse_vec(250, 35, 12);
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, 4);
    let expect = {
        let clean = DistCtx::new(machine(4));
        dops::spmspv::spmspv_dist_bulk(&da, &dx, &clean).unwrap().0
    };
    let dctx = DistCtx::new(machine(4));
    dctx.comm.fail_after(3);
    let y = dctx
        .comm
        .with_retry(2, || dops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx).map(|(y, _)| y))
        .unwrap();
    assert_eq!(y.to_global(), expect.to_global());
    let m = dctx.metrics().snapshot();
    assert_eq!(m.retries, 1, "the fault costs one retry: {m:?}");
    assert_eq!(m.sched_builds, 1, "one inspection across retry attempts: {m:?}");
    assert!(m.sched_replays >= 1, "the retry attempt must replay: {m:?}");
}

#[test]
fn comm_free_ops_are_immune_to_faults() {
    // Apply2 and Assign2 never touch the network; an armed fault must not
    // fire.
    let v = gen::random_sparse_vec(1000, 300, 6);
    let mut d = DistSparseVec::from_global(&v, 4);
    let dctx = DistCtx::new(machine(4));
    dctx.comm.fail_after(0);
    dops::apply::apply_v2(&mut d, &|x: f64| x + 1.0, &dctx).unwrap();
    let mut a = DistSparseVec::empty(1000, 4);
    dops::assign::assign_v2(&mut a, &d, &dctx).unwrap();
    assert_eq!(a.to_global().nnz(), 300);
}
