//! Cross-crate integration: distributed operations must agree with their
//! shared-memory counterparts on every grid shape, through the public
//! facade API.

use gblas::prelude::*;
use gblas_core::gen;
use gblas_core::ops::{apply, assign, ewise, spmspv};
use gblas_dist::ops as dops;

const GRIDS: &[(usize, usize)] = &[(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3), (2, 4)];

fn machine(p: usize) -> MachineConfig {
    MachineConfig::edison_cluster(p, 24)
}

#[test]
fn apply_dist_equals_shared_everywhere() {
    let v = gen::random_sparse_vec(5000, 900, 1);
    let mut expect = v.clone();
    apply::apply_vec_inplace(&mut expect, &|x: f64| x.sqrt(), &ExecCtx::serial());
    for &(pr, pc) in GRIDS {
        let p = pr * pc;
        for version in [1, 2] {
            let mut dv = DistSparseVec::from_global(&v, p);
            let dctx = DistCtx::new(machine(p));
            if version == 1 {
                dops::apply::apply_v1(&mut dv, &|x: f64| x.sqrt(), &dctx).unwrap();
            } else {
                dops::apply::apply_v2(&mut dv, &|x: f64| x.sqrt(), &dctx).unwrap();
            }
            assert_eq!(dv.to_global(), expect, "apply v{version} p={p}");
        }
    }
}

#[test]
fn assign_dist_equals_shared_everywhere() {
    let b = gen::random_sparse_vec(4000, 700, 2);
    let mut expect = SparseVec::new(4000);
    assign::assign_v2(&mut expect, &b, &ExecCtx::serial()).unwrap();
    for &(pr, pc) in GRIDS {
        let p = pr * pc;
        for version in [1, 2] {
            let bd = DistSparseVec::from_global(&b, p);
            let mut ad = DistSparseVec::empty(4000, p);
            let dctx = DistCtx::new(machine(p));
            if version == 1 {
                dops::assign::assign_v1(&mut ad, &bd, &dctx).unwrap();
            } else {
                dops::assign::assign_v2(&mut ad, &bd, &dctx).unwrap();
            }
            assert_eq!(ad.to_global(), expect, "assign v{version} p={p}");
        }
    }
}

#[test]
fn ewise_dist_equals_shared_everywhere() {
    let x = gen::random_sparse_vec(6000, 1200, 3);
    let y = gen::random_dense_bool(6000, 0.5, 4);
    let expect = ewise::ewise_filter_prefix(&x, &y, &|_: f64, k| k, &ExecCtx::serial()).unwrap();
    for &(pr, pc) in GRIDS {
        let p = pr * pc;
        let dx = DistSparseVec::from_global(&x, p);
        let dy = DistDenseVec::from_global(&y, p);
        let dctx = DistCtx::new(machine(p));
        let (z, _) = dops::ewise::ewise_mult_dist(
            &dx,
            &dy,
            &|_: f64, k| k,
            gblas_core::ops::ewise::EwiseVariant::Prefix,
            &dctx,
        )
        .unwrap();
        assert_eq!(z.to_global(), expect, "p={p}");
    }
}

#[test]
fn spmspv_dist_reaches_the_same_columns_everywhere() {
    let a = gen::erdos_renyi(800, 7, 5);
    let x = gen::random_sparse_vec(800, 60, 6);
    let expect = spmspv::spmspv_first_visitor(
        &a,
        &x,
        None,
        spmspv::SpMSpVOpts::default(),
        &ExecCtx::serial(),
    )
    .unwrap();
    for &(pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, p);
        let dctx = DistCtx::new(machine(p));
        let (y, report) = dops::spmspv::spmspv_dist(&da, &dx, &dctx).unwrap();
        assert_eq!(y.to_global().indices(), expect.indices(), "grid {pr}x{pc}");
        assert!(report.total() > 0.0);
    }
}

#[test]
fn semiring_spmspv_composes_with_ewise_and_reduce() {
    // A small end-to-end pipeline exercising several ops together:
    // y = x A (plus-times); z = y filtered by a mask; s = sum(z).
    let a = gen::erdos_renyi(300, 5, 7);
    let x = gen::random_sparse_vec(300, 25, 8);
    let ctx = ExecCtx::with_threads(2);
    let y = spmspv::spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
    let keep = gen::random_dense_bool(300, 0.5, 9);
    let z = ewise::ewise_filter_prefix(&y, &keep, &|_: f64, k| k, &ctx).unwrap();
    let s: f64 = z.values().iter().sum();
    // reference
    let mut expect = 0.0;
    for (i, &v) in y.iter() {
        if keep[i] {
            expect += v;
        }
    }
    assert!((s - expect).abs() < 1e-9);
}

#[test]
fn profile_counters_flow_through_the_facade() {
    let ctx = ExecCtx::with_threads(2);
    let mut v = gen::random_sparse_vec(1000, 200, 10);
    apply::apply_vec_inplace(&mut v, &|x: f64| x + 1.0, &ctx);
    let profile = ctx.take_profile();
    assert_eq!(profile.phase("apply").elems, 200);
    let t = CostModel::edison().profile_time(&profile, 24);
    assert!(t.total() > 0.0);
}

/// A pattern semiring's multiply does not take the matrix value as an
/// input, so the kernels never read it: over a matrix of NaN / ∞ /
/// garbage values the product equals — bit for bit — `plus_times` over
/// the same pattern holding ones, and prices the same. In `x A` the
/// matrix is the right operand (`plus_first`); in `A x` it is the left
/// one, where the same selector is `(plus, second)`.
#[test]
fn pattern_semirings_never_read_matrix_values() {
    use gblas_core::algebra::{Plus, Second};
    use gblas_core::backend::{GblasBackend, SharedBackend};
    use gblas_core::ops::spmv;

    let pattern = gen::erdos_renyi(150, 5, 9);
    let junk = [f64::NAN, f64::INFINITY, -7.5e300, f64::MIN_POSITIVE, -0.0];
    let garbage = pattern.with_values((0..pattern.nnz()).map(|e| junk[e % junk.len()]).collect());
    let ones = pattern.with_values(vec![1.0f64; pattern.nnz()]);
    let xs: Vec<DenseVec<f64>> = (0..3)
        .map(|s| DenseVec::from_fn(150, |i| 0.1 + ((i + 5 * s) % 11) as f64 * 0.37))
        .collect();
    let bits = |v: &DenseVec<f64>| v.as_slice().iter().map(|y| y.to_bits()).collect::<Vec<_>>();
    let (first, times) = (semirings::plus_first(), semirings::plus_times_f64());

    for ctx in [ExecCtx::serial(), ExecCtx::new(4, 2)] {
        let got: DenseVec<f64> = spmv::spmv_col(&garbage, &xs[0], &first, &ctx).unwrap();
        let profile = ctx.take_profile().phase(spmv::PHASE);
        let want: DenseVec<f64> = spmv::spmv_col(&ones, &xs[0], &times, &ctx).unwrap();
        assert_eq!(bits(&got), bits(&want), "spmv_col");
        assert_eq!(profile, ctx.take_profile().phase(spmv::PHASE), "spmv_col counters");

        let second = Semiring::new(Plus, Second);
        let got: DenseVec<f64> = spmv::spmv_row(&garbage, &xs[0], &second, &ctx).unwrap();
        let want: DenseVec<f64> = spmv::spmv_row(&ones, &xs[0], &times, &ctx).unwrap();
        assert_eq!(bits(&got), bits(&want), "spmv_row");

        let backend = SharedBackend::new(&ctx);
        let got: Vec<DenseVec<f64>> = backend.spmv(&garbage, &xs, &first).unwrap();
        let want: Vec<DenseVec<f64>> = backend.spmv(&ones, &xs, &times).unwrap();
        assert_eq!(got.len(), xs.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(bits(g), bits(w), "SharedBackend::spmv");
        }
    }

    for &(pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let (dg, d1) =
            (DistCsrMatrix::from_global(&garbage, grid), DistCsrMatrix::from_global(&ones, grid));
        let dxs: Vec<DistDenseVec<f64>> =
            xs.iter().map(|x| DistDenseVec::from_global(x, p)).collect();
        let dctx = DistCtx::new(machine(p));
        let (got, r_first) =
            dops::spmv::spmv_dist::<f64, f64, f64, _, _>(&dg, &dxs[0], &first, &dctx).unwrap();
        let (want, r_times) =
            dops::spmv::spmv_dist::<f64, f64, f64, _, _>(&d1, &dxs[0], &times, &dctx).unwrap();
        assert_eq!(bits(&got.to_global()), bits(&want.to_global()), "spmv_dist {pr}x{pc}");
        // same counters, so the same simulated price — bar the schedule
        // the first call built and the second replayed
        assert_eq!(r_first.phase("local").to_bits(), r_times.phase("local").to_bits(), "{pr}x{pc}");

        // the same over three columns at once, through the backend trait
        let backend = gblas_dist::DistBackend::new(&dctx);
        let got: Vec<DistDenseVec<f64>> = backend.spmv(&dg, &dxs, &first).unwrap();
        let r_first = backend.take_report();
        let want: Vec<DistDenseVec<f64>> = backend.spmv(&d1, &dxs, &times).unwrap();
        let r_times = backend.take_report();
        assert_eq!(got.len(), dxs.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(bits(&g.to_global()), bits(&w.to_global()), "batched spmv {pr}x{pc}");
        }
        assert_eq!(r_first.total().to_bits(), r_times.total().to_bits(), "batched spmv {pr}x{pc}");
    }
}
