//! Batched-vs-single-source equivalence: the serving contract.
//!
//! The batched multi-source kernels exist so a query server can answer k
//! requests per masked-SpGEMM sweep instead of one — but only if the
//! batched answers are the *same* answers. These tests pin that down as
//! bit-identity: slot `s` of every batched run (BFS, SSSP, personalized
//! PageRank) equals the single-source run from `sources[s]`, on the
//! shared backend and on every distributed grid shape, under both locale
//! executors, duplicate sources included.

use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_core::ops::selection::{Direction, SelectionPolicy};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::{
    bfs, bfs_dist_with, bfs_multi, bfs_multi_dist, bfs_on, ppr_multi_on, sssp_on, PprOptions,
};
use gblas_sim::MachineConfig;

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];
const GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (2, 3)];
// duplicate source 7 on purpose: duplicate queries are independent slots
const SOURCES: [usize; 4] = [0, 7, 7, 190];

fn dctx(grid: ProcGrid, executor: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    d.set_executor(executor);
    d
}

fn graph() -> CsrMatrix<f64> {
    gen::rmat(8, 8, 20170529)
}

/// Assert two f64 slices are bit-for-bit identical.
fn assert_bits(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "{what}: index {i} ({g} vs {e})");
    }
}

#[test]
fn batched_bfs_is_bit_identical_to_the_k_loop() {
    let a = graph();
    let ctx = ExecCtx::with_threads(2);
    let batch = bfs_multi(&a, &SOURCES, &ctx).unwrap();
    let singles: Vec<_> = SOURCES.iter().map(|&s| bfs(&a, s, &ctx).unwrap()).collect();
    for (s, (b, single)) in batch.iter().zip(&singles).enumerate() {
        assert_eq!(b, single, "shared slot {s}");
        b.validate(&a, SOURCES[s]).unwrap();
    }
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let (dist_batch, report) =
                bfs_multi_dist(&da, &SOURCES, &dctx(grid, executor)).unwrap();
            assert!(report.total() > 0.0);
            for (s, (b, single)) in dist_batch.iter().zip(&singles).enumerate() {
                assert_eq!(b, single, "grid {pr}x{pc} {executor:?} slot {s}");
            }
            // ... and against the distributed single-source kernel too
            let (solo, _) = bfs_dist_with(
                &da,
                SOURCES[1],
                CommStrategy::Bulk,
                Default::default(),
                &dctx(grid, executor),
            )
            .unwrap();
            assert_eq!(dist_batch[1], solo, "grid {pr}x{pc} {executor:?} vs dist single-source");
        }
    }
}

#[test]
fn batched_sssp_is_bit_identical_to_the_k_loop() {
    let a = graph();
    let ctx = ExecCtx::with_threads(2);
    let shared = SharedBackend::new(&ctx);
    let opts = SpMSpVOpts::default();
    let batch = sssp_on(&shared, &a, &SOURCES, None, opts).unwrap();
    let singles: Vec<_> = SOURCES
        .iter()
        .map(|&s| sssp_on(&shared, &a, &[s], None, opts).unwrap().remove(0))
        .collect();
    for (s, (b, single)) in batch.iter().zip(&singles).enumerate() {
        assert_bits(b.0.as_slice(), single.0.as_slice(), &format!("shared slot {s}"));
    }
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let d = dctx(grid, executor);
            let backend = DistBackend::with_strategy(&d, CommStrategy::Bulk);
            let dist_batch = sssp_on(&backend, &da, &SOURCES, None, opts).unwrap();
            for (s, (b, single)) in dist_batch.iter().zip(&singles).enumerate() {
                assert_bits(
                    b.0.as_slice(),
                    single.0.as_slice(),
                    &format!("grid {pr}x{pc} {executor:?} slot {s}"),
                );
            }
            let d = dctx(grid, executor);
            let backend = DistBackend::with_strategy(&d, CommStrategy::Bulk);
            let (solo, _) = sssp_on(&backend, &da, &[SOURCES[3]], None, opts).unwrap().remove(0);
            assert_bits(
                dist_batch[3].0.as_slice(),
                solo.as_slice(),
                &format!("grid {pr}x{pc} {executor:?} vs dist single-source"),
            );
        }
    }
}

#[test]
fn batched_ppr_slot_equals_its_solo_run() {
    let a = graph();
    let ctx = ExecCtx::serial();
    let opts = PprOptions { tolerance: 1e-10, ..PprOptions::default() };
    let seeds = [3usize, 77, 3, 150];
    let shared = SharedBackend::new(&ctx);
    let batch = ppr_multi_on(&shared, &a, &seeds, opts).unwrap();
    for (s, &seed) in seeds.iter().enumerate() {
        let solo = ppr_multi_on(&shared, &a, &[seed], opts).unwrap();
        assert_bits(
            batch.scores[s].as_slice(),
            solo.scores[0].as_slice(),
            &format!("shared seed slot {s}"),
        );
        assert_eq!(batch.iterations[s], solo.iterations[0], "slot {s} iteration count");
    }
    // The serving contract is *within-backend* bit-identity: a batched
    // slot answers exactly what the same backend's solo run would. Across
    // backends the per-iteration SpMM reduces thread/block partial sums
    // in a different order (the same pagerank caveat the backend
    // equivalence suite documents), so shared and distributed scores
    // agree to 1e-9 rather than bit-for-bit.
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let d = dctx(grid, executor);
            let backend = DistBackend::with_strategy(&d, CommStrategy::Bulk);
            let dist_batch = ppr_multi_on(&backend, &da, &seeds, opts).unwrap();
            for (s, &seed) in seeds.iter().enumerate() {
                let what = format!("grid {pr}x{pc} {executor:?} seed slot {s}");
                for (g, e) in dist_batch.scores[s].as_slice().iter().zip(batch.scores[s].as_slice())
                {
                    assert!((g - e).abs() < 1e-9, "{what}: {g} vs {e}");
                }
                let d = dctx(grid, executor);
                let backend = DistBackend::with_strategy(&d, CommStrategy::Bulk);
                let solo = ppr_multi_on(&backend, &da, &[seed], opts).unwrap();
                assert_bits(
                    dist_batch.scores[s].as_slice(),
                    solo.scores[0].as_slice(),
                    &format!("{what} vs dist solo"),
                );
                assert_eq!(dist_batch.iterations[s], solo.iterations[0], "{what} vs dist solo");
            }
        }
    }
}

/// Every policy a traversal can run under: the static driver and the
/// three selection policies.
const POLICIES: [Option<SelectionPolicy>; 4] =
    [None, Some(SelectionPolicy::Auto), Some(SelectionPolicy::Push), Some(SelectionPolicy::Pull)];

/// Whether some iteration of a batch had one slot push and another pull.
fn mixes<R>(batch: &[(R, Vec<Direction>)]) -> bool {
    let iterations = batch.iter().map(|(_, log)| log.len()).max().unwrap_or(0);
    (0..iterations).any(|i| {
        let dirs: Vec<Direction> =
            batch.iter().filter_map(|(_, log)| log.get(i)).copied().collect();
        dirs.contains(&Direction::Push) && dirs.contains(&Direction::Pull)
    })
}

/// Slot `s` of a `SOURCES` batch on `backend` is the run from `SOURCES[s]`
/// alone — result and decision log — for BFS and SSSP under every policy.
/// Returns whether some BFS and some SSSP iteration mixed push and pull
/// slots, so the caller can check that the mixed iteration was exercised.
fn assert_every_slot_is_its_solo_run<B: GblasBackend>(
    backend: &B,
    a: &B::Matrix<f64>,
    what: &str,
) -> (bool, bool) {
    let opts = SpMSpVOpts::default();
    let mut mixed = (false, false);
    for policy in POLICIES {
        let batch = bfs_on(backend, a, &SOURCES, policy, opts).unwrap();
        assert_eq!(batch.len(), SOURCES.len());
        for (s, &src) in SOURCES.iter().enumerate() {
            let solo = bfs_on(backend, a, &[src], policy, opts).unwrap();
            assert_eq!(batch[s], solo[0], "{what} bfs {policy:?} slot {s}");
        }
        mixed.0 |= mixes(&batch);
        let batch = sssp_on(backend, a, &SOURCES, policy, opts).unwrap();
        assert_eq!(batch.len(), SOURCES.len());
        for (s, &src) in SOURCES.iter().enumerate() {
            let solo = sssp_on(backend, a, &[src], policy, opts).unwrap();
            let label = format!("{what} sssp {policy:?} slot {s}");
            assert_bits(batch[s].0.as_slice(), solo[0].0.as_slice(), &label);
            assert_eq!(batch[s].1, solo[0].1, "{label}: decision log");
        }
        mixed.1 |= mixes(&batch);
    }
    mixed
}

/// The one driver per traversal, at k = 4 with a duplicate source, on a
/// graph dense enough that `auto` pulls: each slot keeps its own chooser,
/// fed by its own counts, so its decisions — and its answer — are exactly
/// those of its solo run, on the shared backend and on every grid under
/// both executors.
#[test]
fn every_slot_is_its_solo_run_under_every_policy() {
    let a = gen::erdos_renyi(300, 10, 91);
    let ctx = ExecCtx::with_threads(2);
    let mixed = assert_every_slot_is_its_solo_run(&SharedBackend::new(&ctx), &a, "shared");
    assert_eq!(mixed, (true, true), "shared: (bfs, sssp) mixed push and pull slots");
    let mut dist_mixed = (false, false);
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let d = dctx(grid, executor);
            let backend = DistBackend::with_strategy(&d, CommStrategy::Bulk);
            let what = format!("{pr}x{pc} {executor:?}");
            let mixed = assert_every_slot_is_its_solo_run(&backend, &da, &what);
            dist_mixed = (dist_mixed.0 | mixed.0, dist_mixed.1 | mixed.1);
        }
    }
    // The thresholds scale with the locale count, so the 1x1 grid mixes
    // where shared memory does.
    assert_eq!(dist_mixed, (true, true), "dist: (bfs, sssp) mixed push and pull slots");
}

#[test]
fn serving_harness_verifier_agrees() {
    // The `gblas-cli serve-bench --verify` path, exercised as a library
    // call: batched == k-loop on both backends.
    let a = graph();
    gblas_bench::serve::verify_batched_equivalence(&a, &SOURCES, 6).unwrap();
}
