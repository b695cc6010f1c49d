//! Differential guarantee for the run configuration: under every
//! [`RunConfig`] (executor × schedules × workspace), every scheduled
//! kernel must produce bit-identical results, an identical per-event comm
//! ledger, and an identical simulated report to the default's — across
//! several grid shapes. Schedule replay only skips *inspection*; the
//! executed communication must be indistinguishable.

use gblas_core::algebra::semirings;
use gblas_core::backend::{FirstVisitor, GblasBackend, MaskSpec};
use gblas_core::container::{DenseVec, SparseVec};
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::pull::pull_first_visitor_dist;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::ops::{spmspv, spmv};
use gblas_dist::{
    DistBackend, DistCsrMatrix, DistCtx, DistDenseVec, DistSparseVec, LocaleExecutor, ProcGrid,
    RunConfig,
};
use gblas_sim::{MachineConfig, SimReport};
use proptest::prelude::*;

/// A strip, a square, and two rectangles: the shapes the acceptance
/// criteria ask the differential to cover.
const GRIDS: [(usize, usize); 4] = [(1, 3), (2, 2), (2, 3), (3, 3)];

fn ctx(p: usize, exec: LocaleExecutor, schedules: bool) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(p, 24));
    d.set_executor(exec);
    d.set_schedules(schedules);
    d
}

/// Result rows in a bit-comparable encoding: `(indices, value bits)`.
type Out = (Vec<usize>, Vec<u64>);

fn enc_sparse(v: &DistSparseVec<f64>) -> Out {
    let g = v.to_global();
    (g.indices().to_vec(), g.values().iter().map(|x| x.to_bits()).collect())
}

fn enc_dense(v: &DistDenseVec<f64>) -> Out {
    (Vec::new(), v.to_global().as_slice().iter().map(|x| x.to_bits()).collect())
}

fn enc_parents(v: &DistSparseVec<usize>) -> Out {
    let g = v.to_global();
    (g.indices().to_vec(), g.values().iter().map(|&x| x as u64).collect())
}

/// Run every scheduled kernel twice on one context (the second pass is
/// the replay candidate) and hand back everything observable: encoded
/// results, the op reports, and the cumulative comm ledger.
fn run_suite(dctx: &DistCtx, grid: ProcGrid) -> (Vec<Out>, Vec<SimReport>, (u64, u64, u64)) {
    dctx.comm.record_history();
    let p = grid.locales();
    let n = 360;
    let a = gen::erdos_renyi(n, 6, 131);
    let x = gen::random_sparse_vec(n, 45, 132);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, p);
    let at = gblas_core::ops::transpose::transpose(&a, &ExecCtx::serial()).unwrap();
    let dat = DistCsrMatrix::from_global(&at, grid);
    let frontier = DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % 5 == 0), p);
    let visited = DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % 7 == 0), p);
    let xd = DistDenseVec::from_global(&DenseVec::from_fn(n, |i| 1.0 + (i % 9) as f64), p);
    let ring = semirings::plus_times_f64();

    let mut outs = Vec::new();
    let mut reps = Vec::new();
    for pass in 0..2 {
        for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
            let (y, rep) =
                spmspv::spmspv_dist_with(&da, &dx, None, strategy, SpMSpVOpts::default(), dctx)
                    .unwrap();
            outs.push(enc_parents(&y));
            reps.push(rep);
        }
        let (bulk, opts) = (CommStrategy::Bulk, SpMSpVOpts::default());
        let backend = DistBackend::with_strategy(dctx, bulk);
        let y = backend.spmspv(&da, std::slice::from_ref(&dx), &ring, None, opts).unwrap();
        outs.push(enc_sparse(&y[0]));
        reps.push(backend.take_report());

        let (y, rep) = pull_first_visitor_dist(&dat, &frontier, &visited, dctx).unwrap();
        outs.push(enc_parents(&y));
        reps.push(rep);

        let single = |i: usize| SparseVec::from_sorted(n, vec![i], vec![i]).unwrap();
        let f: Vec<DistSparseVec<usize>> =
            [0, 7, 21].map(|i| DistSparseVec::from_global(&single(i), p)).into();
        let visited: Vec<DistDenseVec<bool>> = (0..3)
            .map(|s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % (4 + s) == 0), p))
            .collect();
        let masks: Vec<_> = visited.iter().map(MaskSpec::complement).collect();
        let backend = DistBackend::with_strategy(dctx, bulk);
        let nf = backend.spmspv(&da, &f, &FirstVisitor, Some(&masks), opts).unwrap();
        outs.extend(nf.iter().map(enc_parents));
        reps.push(backend.take_report());

        let (y, rep) = spmv::spmv_dist(&da, &xd, &ring, dctx).unwrap();
        outs.push(enc_dense(&y));
        reps.push(rep);
        let _ = pass;
    }
    (outs, reps, dctx.comm.totals())
}

/// No run-configuration value changes a result, a comm log or a
/// simulated time: the suite under each of the eight configurations
/// matches the default configuration's run event for event. With
/// schedules on the context must actually have replayed; with them off
/// no schedule metric may move.
#[test]
fn every_run_config_is_bit_identical_to_the_default() {
    let machine = |p| MachineConfig::edison_cluster(p, 24);
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let base = DistCtx::new(machine(p));
        let (outs, reps, totals) = run_suite(&base, grid);
        for executor in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
            for schedules in [true, false] {
                for workspace in [true, false] {
                    let cfg = RunConfig { executor, schedules, workspace };
                    let d = DistCtx::new(machine(p)).with_config(cfg);
                    let (o, r, t) = run_suite(&d, grid);
                    assert_eq!(o, outs, "{pr}x{pc} {cfg:?}: results diverge");
                    assert_eq!(r, reps, "{pr}x{pc} {cfg:?}: reports diverge");
                    assert_eq!(t, totals, "{pr}x{pc} {cfg:?}: comm totals diverge");
                    assert_eq!(
                        d.comm.history(),
                        base.comm.history(),
                        "{pr}x{pc} {cfg:?}: per-event comm ledgers diverge"
                    );

                    let m = d.metrics().snapshot();
                    if schedules {
                        // three distinct plan keys (gather_rows — every
                        // push's, batched or not —, pull_gather,
                        // spmv_gather) inspected exactly once each; pass 2
                        // replays all of them, and pass 1 already replays
                        // the second and third spmspv gathers and the
                        // batched push's
                        assert_eq!(m.sched_builds, 3, "{pr}x{pc} {cfg:?}: {m:?}");
                        assert_eq!(m.sched_invalidations, 0, "{pr}x{pc} {cfg:?}: {m:?}");
                        assert!(m.sched_replays >= 7, "{pr}x{pc} {cfg:?}: {m:?}");
                    } else {
                        let counts = (m.sched_builds, m.sched_replays, m.sched_invalidations);
                        assert_eq!(counts, (0, 0, 0), "{pr}x{pc} {cfg:?}: metrics moved");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized differential: arbitrary graph/frontier/grid, schedules
    /// on vs off, repeated calls on one context. Results and comm totals
    /// must be bit-identical.
    #[test]
    fn schedules_are_bit_invisible_on_random_inputs(
        n in 60usize..300,
        deg in 2usize..8,
        seed in 0u64..10_000,
        gi in 0usize..3,
        nnz_frac in 2usize..6,
    ) {
        let (pr, pc) = [(1, 2), (2, 2), (2, 3)][gi];
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let a = gen::erdos_renyi(n, deg, seed);
        let x = gen::random_sparse_vec(n, (n / nnz_frac).max(1), seed + 1);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, p);
        let xd = DistDenseVec::from_global(&DenseVec::from_fn(n, |i| (i % 11) as f64), p);
        let ring = semirings::plus_times_f64();

        let run = |schedules: bool| {
            let d = ctx(p, LocaleExecutor::Serial, schedules);
            let mut outs: Vec<Out> = Vec::new();
            for _ in 0..2 {
                let (bulk, opts) = (CommStrategy::Bulk, SpMSpVOpts::default());
                let backend = DistBackend::with_strategy(&d, bulk);
                let y = backend.spmspv(&da, std::slice::from_ref(&dx), &ring, None, opts).unwrap();
                outs.push(enc_sparse(&y[0]));
                let (y, _) = spmv::spmv_dist(&da, &xd, &ring, &d).unwrap();
                outs.push(enc_dense(&y));
            }
            (outs, d.comm.totals())
        };
        prop_assert_eq!(run(true), run(false));
    }
}
