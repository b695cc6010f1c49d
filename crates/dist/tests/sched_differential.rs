//! Differential guarantee for the inspector–executor schedules: with
//! `GBLAS_SCHED` on or off, every scheduled kernel must produce
//! bit-identical results, an identical per-event comm ledger, and an
//! identical simulated report — across both locale executors and several
//! grid shapes. Replay only skips *inspection*; the executed
//! communication must be indistinguishable.

use gblas_core::algebra::semirings;
use gblas_core::backend::{GblasBackend, MaskSpec};
use gblas_core::container::{DenseVec, SparseVec};
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::pull::pull_first_visitor_dist;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::ops::{extract, spmspv, spmv};
use gblas_dist::{
    DistBackend, DistCsrMatrix, DistCtx, DistDenseVec, DistSparseVec, LocaleExecutor, ProcGrid,
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
    let index_set: Vec<usize> = (0..n).step_by(3).collect();
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
        let (y, rep) =
            spmspv::spmspv_dist_semiring_with(&da, &dx, &ring, None, bulk, opts, dctx).unwrap();
        outs.push(enc_sparse(&y));
        reps.push(rep);

        let (y, rep) = pull_first_visitor_dist(&dat, &frontier, &visited, dctx).unwrap();
        outs.push(enc_parents(&y));
        reps.push(rep);

        let (z, rep) = extract::extract_dist(&dx, &index_set, dctx).unwrap();
        outs.push(enc_sparse(&z));
        reps.push(rep);

        let single = |i: usize| SparseVec::from_sorted(n, vec![i], vec![i]).unwrap();
        let f: Vec<DistSparseVec<usize>> =
            [0, 7, 21].map(|i| DistSparseVec::from_global(&single(i), p)).into();
        let visited: Vec<DistDenseVec<bool>> = (0..3)
            .map(|s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % (4 + s) == 0), p))
            .collect();
        let masks: Vec<_> = visited.iter().map(MaskSpec::complement).collect();
        let backend = DistBackend::with_strategy(dctx, bulk);
        let nf = backend.spmspv_first_visitor(&da, &f, Some(&masks), opts).unwrap();
        outs.extend(nf.iter().map(enc_parents));
        reps.push(backend.take_report());

        let (y, rep) = spmv::spmv_dist(&da, &xd, &ring, dctx).unwrap();
        outs.push(enc_dense(&y));
        reps.push(rep);
        let _ = pass;
    }
    (outs, reps, dctx.comm.totals())
}

/// The tentpole acceptance criterion: schedule replay is bit-invisible.
/// Same results, same comm event stream (phase/src/dst/msgs/bytes in the
/// same order), same reports — schedules on vs off, both executors, all
/// grid shapes. And the on-context must actually have replayed.
#[test]
fn schedules_on_vs_off_are_bit_identical_everywhere() {
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
            let d_on = ctx(p, exec, true);
            let (outs_on, reps_on, tot_on) = run_suite(&d_on, grid);
            let d_off = ctx(p, exec, false);
            let (outs_off, reps_off, tot_off) = run_suite(&d_off, grid);

            assert_eq!(outs_on, outs_off, "{pr}x{pc} {exec:?}: results diverge");
            assert_eq!(reps_on, reps_off, "{pr}x{pc} {exec:?}: reports diverge");
            assert_eq!(tot_on, tot_off, "{pr}x{pc} {exec:?}: comm totals diverge");
            assert_eq!(
                d_on.comm.history(),
                d_off.comm.history(),
                "{pr}x{pc} {exec:?}: per-event comm ledgers diverge"
            );

            let m_on = d_on.metrics().snapshot();
            // four distinct plan keys (gather_rows — every push's, batched
            // or not —, pull_gather, extract, spmv_gather) inspected
            // exactly once each
            assert_eq!(m_on.sched_builds, 4, "{pr}x{pc} {exec:?}: {m_on:?}");
            assert_eq!(m_on.sched_invalidations, 0, "{pr}x{pc} {exec:?}: {m_on:?}");
            // pass 2 replays all four; pass 1 already replays the second
            // and third spmspv gathers and the batched expand's
            assert!(m_on.sched_replays >= 7, "{pr}x{pc} {exec:?}: too few replays in {m_on:?}");
            let m_off = d_off.metrics().snapshot();
            assert_eq!(
                (m_off.sched_builds, m_off.sched_replays, m_off.sched_invalidations),
                (0, 0, 0),
                "{pr}x{pc} {exec:?}: disabled schedules moved the metrics"
            );
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
                let (y, _) =
                    spmspv::spmspv_dist_semiring_with(&da, &dx, &ring, None, bulk, opts, &d)
                        .unwrap();
                outs.push(enc_sparse(&y));
                let (y, _) = spmv::spmv_dist(&da, &xd, &ring, &d).unwrap();
                outs.push(enc_dense(&y));
            }
            (outs, d.comm.totals())
        };
        prop_assert_eq!(run(true), run(false));
    }
}
