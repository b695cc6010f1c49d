//! Property-based tests of the core containers and operations.

use gblas_core::algebra::{semirings, Max, Min, Monoid, Plus, Times};
use gblas_core::container::{CooMatrix, CsrMatrix, DenseVec, DupPolicy, SparseVec};
use gblas_core::ops::{assign, ewise, extract, reduce, select, spmspv, spmv, transpose};
use gblas_core::par::ExecCtx;
use gblas_core::sort::{parallel_merge_sort, radix_sort};
use proptest::prelude::*;

/// Strategy: a sparse vector of capacity `cap` with arbitrary density.
fn sparse_vec(cap: usize) -> impl Strategy<Value = SparseVec<f64>> {
    prop::collection::btree_set(0..cap, 0..=cap.min(64)).prop_flat_map(move |idx| {
        let indices: Vec<usize> = idx.into_iter().collect();
        let n = indices.len();
        prop::collection::vec(-100.0f64..100.0, n)
            .prop_map(move |values| SparseVec::from_sorted(cap, indices.clone(), values).unwrap())
    })
}

/// Strategy: a small CSR matrix.
fn csr(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    prop::collection::btree_set((0..rows, 0..cols), 0..=48).prop_flat_map(move |cells| {
        let cells: Vec<(usize, usize)> = cells.into_iter().collect();
        let n = cells.len();
        prop::collection::vec(-10.0f64..10.0, n).prop_map(move |vals| {
            let mut coo = CooMatrix::new(rows, cols);
            for ((r, c), v) in cells.iter().zip(vals) {
                coo.push(*r, *c, v).unwrap();
            }
            coo.to_csr(DupPolicy::Error).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_vec_dense_round_trip(v in sparse_vec(40)) {
        let d = v.to_dense(f64::NAN);
        let back = {
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            for (i, &x) in d.as_slice().iter().enumerate() {
                if !x.is_nan() { idx.push(i); vals.push(x); }
            }
            SparseVec::from_sorted(40, idx, vals).unwrap()
        };
        prop_assert_eq!(back, v);
    }

    #[test]
    fn assign_v1_equals_v2(b in sparse_vec(50)) {
        let ctx = ExecCtx::with_threads(3);
        let mut a1 = SparseVec::new(50);
        let mut a2 = SparseVec::new(50);
        assign::assign_v1(&mut a1, &b, &ctx).unwrap();
        assign::assign_v2(&mut a2, &b, &ctx).unwrap();
        prop_assert_eq!(&a1, &b);
        prop_assert_eq!(a1, a2);
    }

    #[test]
    fn ewise_mult_is_intersection(a in sparse_vec(30), b in sparse_vec(30)) {
        let ctx = ExecCtx::serial();
        let z: SparseVec<f64> = ewise::ewise_mult(&a, &b, &Times, &ctx).unwrap();
        for (i, &v) in z.iter() {
            let (x, y) = (a.get(i).copied().unwrap(), b.get(i).copied().unwrap());
            prop_assert!((v - x * y).abs() < 1e-9);
        }
        let expected: usize =
            a.indices().iter().filter(|i| b.get(**i).is_some()).count();
        prop_assert_eq!(z.nnz(), expected);
    }

    #[test]
    fn ewise_add_is_union(a in sparse_vec(30), b in sparse_vec(30)) {
        let ctx = ExecCtx::serial();
        let z = ewise::ewise_add(&a, &b, &Plus, &ctx).unwrap();
        let mut union: Vec<usize> = a.indices().iter().chain(b.indices()).copied().collect();
        union.sort_unstable();
        union.dedup();
        prop_assert_eq!(z.indices(), &union[..]);
        for (i, &v) in z.iter() {
            let expect = a.get(i).copied().unwrap_or(0.0) + b.get(i).copied().unwrap_or(0.0);
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn filter_variants_agree(x in sparse_vec(40), seed in 0u64..1000) {
        let y = gblas_core::gen::random_dense_bool(40, 0.5, seed);
        let ctx = ExecCtx::with_threads(4);
        let a = ewise::ewise_filter_atomic(&x, &y, &|_: f64, k| k, &ctx).unwrap();
        let b = ewise::ewise_filter_prefix(&x, &y, &|_: f64, k| k, &ctx).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn spmspv_semiring_matches_dense(a in csr(20, 20), x in sparse_vec(20)) {
        let ctx = ExecCtx::serial();
        let y = spmspv::spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx)
            .unwrap();
        let mut expect = [0.0f64; 20];
        for (i, &xv) in x.iter() {
            let (cols, vals) = a.row(i);
            for (&j, &av) in cols.iter().zip(vals) {
                expect[j] += xv * av;
            }
        }
        let dense = y.to_dense(0.0);
        for j in 0..20 {
            prop_assert!((dense[j] - expect[j]).abs() < 1e-6, "col {}", j);
        }
    }

    #[test]
    fn spmspv_variants_agree(a in csr(25, 25), x in sparse_vec(25)) {
        let ctx = ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        let spa = spmspv::spmspv_semiring(&a, &x, &ring, &ctx).unwrap();
        let srt = spmspv::spmspv_sort_based(&a, &x, &ring, &ctx).unwrap();
        prop_assert_eq!(spa.indices(), srt.indices());
        for (p, q) in spa.values().iter().zip(srt.values()) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_involution(a in csr(15, 22)) {
        let ctx = ExecCtx::serial();
        let t = transpose::transpose(&a, &ctx).unwrap();
        let tt = transpose::transpose(&t, &ctx).unwrap();
        prop_assert_eq!(tt, a);
    }

    #[test]
    fn spmv_row_equals_transposed_col(a in csr(18, 18), dense in prop::collection::vec(-5.0f64..5.0, 18)) {
        let ctx = ExecCtx::serial();
        let x = DenseVec::from_vec(dense);
        let ring = semirings::plus_times_f64();
        let y1: DenseVec<f64> = spmv::spmv_row(&a, &x, &ring, &ctx).unwrap();
        let at = transpose::transpose(&a, &ctx).unwrap();
        let y2: DenseVec<f64> = spmv::spmv_col(&at, &x, &ring, &ctx).unwrap();
        for j in 0..18 {
            prop_assert!((y1[j] - y2[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn reduce_agrees_with_iterator(v in sparse_vec(35)) {
        let ctx = ExecCtx::with_threads(3);
        let sum = reduce::reduce_vec(&v, &Plus, &ctx);
        let expect: f64 = v.values().iter().sum();
        prop_assert!((sum - expect).abs() < 1e-9);
        if v.nnz() > 0 {
            let min = reduce::reduce_vec(&v, &Min, &ctx);
            let max = reduce::reduce_vec(&v, &Max, &ctx);
            prop_assert_eq!(min, v.values().iter().cloned().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(max, v.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        }
    }

    #[test]
    fn select_then_union_recovers(v in sparse_vec(30)) {
        let ctx = ExecCtx::serial();
        let pos = select::select_vec(&v, &|_, x: f64| x >= 0.0, &ctx);
        let neg = select::select_vec(&v, &|_, x: f64| x < 0.0, &ctx);
        prop_assert_eq!(pos.nnz() + neg.nnz(), v.nnz());
        let merged = ewise::ewise_add(&pos, &neg, &Plus, &ctx).unwrap();
        prop_assert_eq!(merged, v);
    }

    #[test]
    fn extract_identity(v in sparse_vec(25)) {
        let ctx = ExecCtx::serial();
        let all: Vec<usize> = (0..25).collect();
        let e = extract::extract_vec(&v, &all, &ctx).unwrap();
        prop_assert_eq!(e.indices(), v.indices());
        prop_assert_eq!(e.values(), v.values());
    }

    #[test]
    fn sorts_agree_with_std(mut data in prop::collection::vec(0usize..1_000_000, 0..500)) {
        let mut expect = data.clone();
        expect.sort_unstable();
        let ctx = ExecCtx::with_threads(4);
        let mut m = data.clone();
        parallel_merge_sort(&mut m, &ctx, "s");
        prop_assert_eq!(&m, &expect);
        radix_sort(&mut data, &ctx, "s");
        prop_assert_eq!(&data, &expect);
    }

    #[test]
    fn monoid_laws_on_samples(a in -1e6f64..1e6, b in -1e6f64..1e6, c in -1e6f64..1e6) {
        // associativity + identity for the f64 monoids we ship
        fn check<M: Monoid<f64>>(m: &M, a: f64, b: f64, c: f64) -> bool {
            let assoc = (m.combine(m.combine(a, b), c) - m.combine(a, m.combine(b, c))).abs()
                < 1e-6 * (1.0 + a.abs() + b.abs() + c.abs());
            let ident = m.combine(m.identity(), a) == a && m.combine(a, m.identity()) == a;
            assoc && ident
        }
        prop_assert!(check(&Plus, a, b, c));
        prop_assert!(check(&Min, a, b, c));
        prop_assert!(check(&Max, a, b, c));
    }
}
