//! Backend equivalence: every algorithm is one generic function over
//! [`gblas_core::backend::GblasBackend`], so the shared-memory run and
//! the simulated distributed run execute the *same text*. These tests pin
//! the contract down: for the integer/min/max algorithms the distributed
//! result is **bit-identical** to the shared one on every grid and under
//! both locale executors; for the floating-point accumulations
//! (pagerank, betweenness) it is bit-identical exactly on the grid shapes
//! where the summation order provably matches, and within 1e-9 elsewhere.

use gblas_core::backend::SharedBackend;
use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::{
    betweenness_on, bfs, bfs_dist_with, connected_components_on, core_numbers_on,
    maximal_independent_set_on, pagerank, pagerank_dist_on, sssp_on, triangle_count,
    triangle_count_dist, PageRankOptions,
};
use gblas_sim::MachineConfig;

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];

fn dctx(grid: ProcGrid, executor: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    d.set_executor(executor);
    d
}

fn distribute(a: &CsrMatrix<f64>, pr: usize, pc: usize) -> (DistCsrMatrix<f64>, ProcGrid) {
    let grid = ProcGrid::new(pr, pc);
    (DistCsrMatrix::from_global(a, grid), grid)
}

/// Assert two f64 slices are bit-for-bit identical (not just `==`, which
/// would conflate 0.0 and -0.0 and miss NaN payloads).
fn assert_bits(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (v, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "{what}: vertex {v}: {g} vs {e}");
    }
}

const GRIDS: [(usize, usize); 4] = [(1, 1), (2, 2), (2, 3), (4, 1)];

#[test]
fn bfs_bit_identical_on_every_grid_and_executor() {
    let a = gen::erdos_renyi(180, 5, 31);
    let expect = bfs(&a, 3, &ExecCtx::serial()).unwrap();
    for (pr, pc) in GRIDS {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr, pc);
            let d = dctx(grid, exec);
            let (r, report) =
                bfs_dist_with(&da, 3, CommStrategy::Fine, SpMSpVOpts::default(), &d).unwrap();
            assert_eq!(r.levels, expect.levels, "grid {pr}x{pc} {exec:?}");
            assert_eq!(r.parents, expect.parents, "grid {pr}x{pc} {exec:?}");
            assert!(report.total() > 0.0);
        }
    }
}

#[test]
fn bfs_bucketed_merge_and_bulk_comm_change_nothing() {
    let a = gen::erdos_renyi(180, 5, 31);
    let expect = bfs(&a, 3, &ExecCtx::serial()).unwrap();
    let opts = SpMSpVOpts::with_merge(MergeStrategy::Bucketed);
    let (da, grid) = distribute(&a, 2, 3);
    let d = dctx(grid, LocaleExecutor::Threaded);
    let (r, _) = bfs_dist_with(&da, 3, CommStrategy::Bulk, opts, &d).unwrap();
    assert_eq!(r.levels, expect.levels);
    assert_eq!(r.parents, expect.parents);
}

#[test]
fn sssp_bit_identical_on_every_grid_and_executor() {
    // min-plus over f64: every combine picks one of the candidate values,
    // so there is no reassociation error to tolerate — bits must match.
    let a = gen::erdos_renyi(160, 4, 8);
    let opts = SpMSpVOpts::default();
    let ctx = ExecCtx::serial();
    let shared = SharedBackend::new(&ctx);
    let (expect, _) = sssp_on(&shared, &a, &[0], None, opts).unwrap().remove(0);
    for (pr, pc) in GRIDS {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr, pc);
            let d = dctx(grid, exec);
            let b = DistBackend::with_strategy(&d, CommStrategy::Bulk);
            let (dist, _) = sssp_on(&b, &da, &[0], None, opts).unwrap().remove(0);
            assert_bits(dist.as_slice(), expect.as_slice(), &format!("grid {pr}x{pc} {exec:?}"));
        }
    }
}

#[test]
fn sssp_bucketed_merge_variant_matches() {
    let a = gen::erdos_renyi(160, 4, 8);
    let ctx = ExecCtx::serial();
    let shared = SharedBackend::new(&ctx);
    let (expect, _) = sssp_on(&shared, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
    let opts = SpMSpVOpts::with_merge(MergeStrategy::Bucketed);
    let (da, grid) = distribute(&a, 2, 2);
    let d = dctx(grid, LocaleExecutor::Threaded);
    let b = DistBackend::with_strategy(&d, CommStrategy::Bulk);
    let (dist, _) = sssp_on(&b, &da, &[0], None, opts).unwrap().remove(0);
    assert_bits(dist.as_slice(), expect.as_slice(), "bucketed+bulk");
}

#[test]
fn cc_bit_identical_on_every_grid_and_executor() {
    let a = gen::erdos_renyi_symmetric(150, 3, 12);
    let opts = SpMSpVOpts::default();
    let ctx = ExecCtx::serial();
    let shared = SharedBackend::new(&ctx);
    let (expect, _) = connected_components_on(&shared, &a, None, opts).unwrap();
    for (pr, pc) in GRIDS {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr, pc);
            let d = dctx(grid, exec);
            let (labels, _) =
                connected_components_on(&DistBackend::new(&d), &da, None, opts).unwrap();
            assert_eq!(labels, expect, "grid {pr}x{pc} {exec:?}");
        }
    }
}

#[test]
fn kcore_bit_identical_on_every_grid_and_executor() {
    let a = gen::erdos_renyi_symmetric(150, 5, 4);
    let expect = core_numbers_on(&SharedBackend::new(&ExecCtx::serial()), &a).unwrap();
    for (pr, pc) in GRIDS {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr, pc);
            let d = dctx(grid, exec);
            let core = core_numbers_on(&DistBackend::new(&d), &da).unwrap();
            assert_eq!(core, expect, "grid {pr}x{pc} {exec:?}");
        }
    }
}

#[test]
fn mis_bit_identical_on_every_grid_and_executor() {
    let a = gen::erdos_renyi_symmetric(150, 4, 21);
    let expect =
        maximal_independent_set_on(&SharedBackend::new(&ExecCtx::serial()), &a, 42).unwrap();
    for (pr, pc) in GRIDS {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr, pc);
            let d = dctx(grid, exec);
            let set = maximal_independent_set_on(&DistBackend::new(&d), &da, 42).unwrap();
            assert_eq!(set, expect, "grid {pr}x{pc} {exec:?}");
        }
    }
}

#[test]
fn triangles_bit_identical_on_square_grids_and_executors() {
    // the sparse SUMMA behind the masked SpGEMM needs a square grid
    let a = gen::erdos_renyi_symmetric(160, 6, 17);
    let expect = triangle_count(&a, &ExecCtx::serial()).unwrap();
    for q in [1usize, 2, 3] {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, q, q);
            let d = dctx(grid, exec);
            let (t, report) = triangle_count_dist(&da, &d).unwrap();
            assert_eq!(t, expect, "grid {q}x{q} {exec:?}");
            assert!(report.total() > 0.0);
        }
    }
}

#[test]
fn pagerank_tolerance_and_iteration_parity_on_every_grid() {
    // The distributed SpMV reassociates the f64 dot products (its partial
    // sums follow the column blocks), so pagerank agrees to rounding —
    // never bitwise, even on one locale — and must converge in the same
    // number of iterations.
    let a = gen::erdos_renyi(120, 4, 6);
    let opts = PageRankOptions::default();
    let (expect, iters) = pagerank(&a, opts, &ExecCtx::serial()).unwrap();
    for (pr_rows, pc) in GRIDS {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr_rows, pc);
            let d = dctx(grid, exec);
            let (pr, di, _) = pagerank_dist_on(&da, opts, &d).unwrap();
            assert_eq!(di, iters, "grid {pr_rows}x{pc} {exec:?}");
            for v in 0..120 {
                assert!(
                    (pr[v] - expect[v]).abs() < 1e-9,
                    "grid {pr_rows}x{pc} {exec:?} vertex {v}: {} vs {}",
                    pr[v],
                    expect[v]
                );
            }
        }
    }
}

#[test]
fn betweenness_bit_identical_on_column_vector_grids() {
    // With the input on a pr x 1 grid the transposed matrix lands on
    // 1 x pr, so both sweeps see whole rows and the f64 accumulation
    // order matches the shared run exactly.
    let a = gen::erdos_renyi(80, 4, 13);
    let sources = [0usize, 11, 39];
    let expect = betweenness_on(&SharedBackend::new(&ExecCtx::serial()), &a, &sources).unwrap();
    for pr in [1usize, 4] {
        for exec in EXECUTORS {
            let (da, grid) = distribute(&a, pr, 1);
            let d = dctx(grid, exec);
            let bc = betweenness_on(&DistBackend::new(&d), &da, &sources).unwrap();
            assert_bits(bc.as_slice(), expect.as_slice(), &format!("grid {pr}x1 {exec:?}"));
        }
    }
}

#[test]
fn betweenness_tolerance_on_general_grids() {
    let a = gen::erdos_renyi(80, 4, 13);
    let sources = [0usize, 11, 39];
    let expect = betweenness_on(&SharedBackend::new(&ExecCtx::serial()), &a, &sources).unwrap();
    for exec in EXECUTORS {
        let (da, grid) = distribute(&a, 2, 2);
        let d = dctx(grid, exec);
        let bc = betweenness_on(&DistBackend::new(&d), &da, &sources).unwrap();
        for v in 0..80 {
            assert!(
                (bc[v] - expect[v]).abs() < 1e-9,
                "{exec:?} vertex {v}: {} vs {}",
                bc[v],
                expect[v]
            );
        }
    }
}

#[test]
fn serial_and_threaded_executors_agree_bit_for_bit_on_floats() {
    // Even where dist differs from shared by rounding, the two executors
    // must agree with each other exactly: scheduling must not change
    // arithmetic.
    let a = gen::erdos_renyi(120, 4, 99);
    let sources = [0usize, 7];
    let (da, grid) = distribute(&a, 2, 3);

    let d_serial = dctx(grid, LocaleExecutor::Serial);
    let d_threaded = dctx(grid, LocaleExecutor::Threaded);

    let (pr_s, it_s, _) = pagerank_dist_on(&da, PageRankOptions::default(), &d_serial).unwrap();
    let (pr_t, it_t, _) = pagerank_dist_on(&da, PageRankOptions::default(), &d_threaded).unwrap();
    assert_eq!(it_s, it_t);
    assert_bits(pr_s.as_slice(), pr_t.as_slice(), "pagerank serial vs threaded");

    let bc_s = betweenness_on(&DistBackend::new(&d_serial), &da, &sources).unwrap();
    let bc_t = betweenness_on(&DistBackend::new(&d_threaded), &da, &sources).unwrap();
    assert_bits(bc_s.as_slice(), bc_t.as_slice(), "betweenness serial vs threaded");
}
