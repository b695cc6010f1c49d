//! Property-based tests of the distributed substrate: distribution round
//! trips, version equivalence, and shared-vs-distributed agreement on
//! arbitrary inputs and grid shapes.

use gblas::prelude::*;
use gblas_core::gen;
use gblas_core::ops as cops;
use gblas_dist::ops as dops;
use proptest::prelude::*;

fn sparse_vec(cap: usize) -> impl Strategy<Value = SparseVec<f64>> {
    prop::collection::btree_set(0..cap, 0..=cap.min(50)).prop_flat_map(move |idx| {
        let indices: Vec<usize> = idx.into_iter().collect();
        let n = indices.len();
        prop::collection::vec(-50.0f64..50.0, n)
            .prop_map(move |values| SparseVec::from_sorted(cap, indices.clone(), values).unwrap())
    })
}

fn grid() -> impl Strategy<Value = ProcGrid> {
    (1usize..=3, 1usize..=3).prop_map(|(pr, pc)| ProcGrid::new(pr, pc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vector_distribution_round_trip(v in sparse_vec(64), p in 1usize..=9) {
        let d = DistSparseVec::from_global(&v, p);
        prop_assert_eq!(d.to_global(), v);
    }

    #[test]
    fn matrix_distribution_round_trip(seed in 0u64..500, g in grid()) {
        let a = gen::erdos_renyi(37, 3, seed);
        let d = DistCsrMatrix::from_global(&a, g);
        prop_assert_eq!(d.to_global().unwrap(), a);
    }

    #[test]
    fn shard_ownership_is_total_and_disjoint(v in sparse_vec(64), p in 1usize..=8) {
        let d = DistSparseVec::from_global(&v, p);
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..p {
            let range = d.dist().range(l);
            for &i in d.shard(l).indices() {
                prop_assert!(range.contains(&i));
                prop_assert!(seen.insert(i), "index {} owned twice", i);
            }
        }
        prop_assert_eq!(seen.len(), v.nnz());
    }

    #[test]
    fn dist_apply_versions_agree(v in sparse_vec(64), p in 1usize..=8) {
        let mut d1 = DistSparseVec::from_global(&v, p);
        let mut d2 = d1.clone();
        let c1 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let c2 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        dops::apply::apply_v1(&mut d1, &|x: f64| x * 3.0 - 1.0, &c1).unwrap();
        dops::apply::apply_v2(&mut d2, &|x: f64| x * 3.0 - 1.0, &c2).unwrap();
        prop_assert_eq!(&d1, &d2);
        // and against the shared-memory kernel
        let mut expect = v.clone();
        cops::apply::apply_vec_inplace(&mut expect, &|x: f64| x * 3.0 - 1.0, &ExecCtx::serial());
        prop_assert_eq!(d1.to_global(), expect);
    }

    #[test]
    fn dist_assign_versions_agree(b in sparse_vec(64), p in 1usize..=8) {
        let bd = DistSparseVec::from_global(&b, p);
        let mut a1 = DistSparseVec::empty(64, p);
        let mut a2 = DistSparseVec::empty(64, p);
        let c1 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let c2 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        dops::assign::assign_v1(&mut a1, &bd, &c1).unwrap();
        dops::assign::assign_v2(&mut a2, &bd, &c2).unwrap();
        prop_assert_eq!(&a1, &bd);
        prop_assert_eq!(a1, a2);
    }

    #[test]
    fn dist_spmspv_strategies_and_grids_agree(seed in 0u64..300, g in grid()) {
        let n = 60;
        let a = gen::erdos_renyi(n, 4, seed);
        let x = gen::random_sparse_vec(n, 8, seed + 7);
        let p = g.locales();
        let da = DistCsrMatrix::from_global(&a, g);
        let dx = DistSparseVec::from_global(&x, p);
        let expect = cops::spmspv::spmspv_first_visitor(
            &a, &x, None, cops::spmspv::SpMSpVOpts::default(), &ExecCtx::serial(),
        ).unwrap();

        let c_fine = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let (y_fine, _) = dops::spmspv::spmspv_dist(&da, &dx, &c_fine).unwrap();
        let c_bulk = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let (y_bulk, _) = dops::spmspv::spmspv_dist_bulk(&da, &dx, &c_bulk).unwrap();

        let yf = y_fine.to_global();
        let yb = y_bulk.to_global();
        prop_assert_eq!(yf.indices(), expect.indices());
        prop_assert_eq!(yb.indices(), expect.indices());
        // all reported parents are valid frontier rows with real edges
        for (col, &rid) in yf.iter() {
            prop_assert!(x.get(rid).is_some());
            prop_assert!(a.get(rid, col).is_some());
        }
    }

    #[test]
    fn simulated_time_is_always_positive_and_finite(v in sparse_vec(64), p in 1usize..=8) {
        let mut d = DistSparseVec::from_global(&v, p);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let r = dops::apply::apply_v2(&mut d, &|x: f64| x, &dctx).unwrap();
        prop_assert!(r.total().is_finite());
        prop_assert!(r.total() > 0.0);
    }

    #[test]
    fn dist_transpose_matches_global(seed in 0u64..200, g in grid()) {
        let a = gen::erdos_renyi(45, 3, seed);
        let da = DistCsrMatrix::from_global(&a, g);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(g.locales(), 24));
        let (t, _) = dops::transpose::transpose_dist(&da, &dctx).unwrap();
        let expect = gblas_core::ops::transpose::transpose(
            &a, &ExecCtx::serial(),
        ).unwrap();
        prop_assert_eq!(t.to_global().unwrap(), expect);
    }

    #[test]
    fn dist_spmv_matches_shared(seed in 0u64..200, g in grid()) {
        let n = 50;
        let a = gen::erdos_renyi(n, 4, seed);
        let xv: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let x = DenseVec::from_vec(xv);
        let ring = semirings::plus_times_f64();
        let expect: DenseVec<f64> = gblas_core::ops::spmv::spmv_col(
            &a, &x, &ring, &ExecCtx::serial(),
        ).unwrap();
        let p = g.locales();
        let da = DistCsrMatrix::from_global(&a, g);
        let dx = DistDenseVec::from_global(&x, p);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let (y, _) = dops::spmv::spmv_dist(&da, &dx, &ring, &dctx).unwrap();
        let yg = y.to_global();
        for j in 0..n {
            prop_assert!((yg[j] - expect[j]).abs() < 1e-9, "col {}", j);
        }
    }

    #[test]
    fn dist_summa_matches_shared(seed in 0u64..100, s in 1usize..=3) {
        let a = gen::erdos_renyi(40, 3, seed);
        let b = gen::erdos_renyi(40, 3, seed + 1);
        let ring = semirings::plus_times_f64();
        let expect = gblas_core::ops::mxm::mxm::<_, _, f64, _, _, bool>(
            &a, &b, &ring, None, &ExecCtx::serial(),
        ).unwrap();
        let g = ProcGrid::new(s, s);
        let da = DistCsrMatrix::from_global(&a, g);
        let db = DistCsrMatrix::from_global(&b, g);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(g.locales(), 24));
        let (dc, _) = dops::mxm::mxm_dist(&da, &db, &ring, &dctx).unwrap();
        let got = dc.to_global().unwrap();
        prop_assert_eq!(got.rowptr(), expect.rowptr());
        prop_assert_eq!(got.colidx(), expect.colidx());
        for (x, y) in got.values().iter().zip(expect.values()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn dist_reduce_matches_fold(seed in 0u64..500, g in grid()) {
        let a = gen::erdos_renyi(37, 3, seed);
        let d = DistCsrMatrix::from_global(&a, g);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(g.locales(), 24));
        let (sum, _) = dops::reduce::reduce_mat_dist(&d, &gblas_core::algebra::Plus, &dctx).unwrap();
        let expect: f64 = a.values().iter().sum();
        prop_assert!((sum - expect).abs() < 1e-9);
    }
}
