//! Property-based tests of the core containers and operations.

use gblas_core::algebra::{semirings, Max, Min, Monoid, Plus, Times};
use gblas_core::container::{CooMatrix, CsrMatrix, DenseVec, DupPolicy, SparseVec};
use gblas_core::ops::{assign, ewise, select, spmspv, spmv, transpose};
use gblas_core::par::ExecCtx;
use gblas_core::sort::{parallel_merge_sort, radix_sort};
use proptest::prelude::*;

mod oracle;

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

/// Strategy: a shape, `0 × n` and `n × 0` included, and triplets over it
/// with heavy duplicates (few rows and columns, many pushes) and empty rows.
#[allow(clippy::type_complexity)]
fn triplets() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (0usize..9, 0usize..9).prop_flat_map(|(rows, cols)| {
        let most = if rows == 0 || cols == 0 { 0 } else { 120 };
        let cell = (0..rows.max(1), 0..cols.max(1), -10.0f64..10.0);
        prop::collection::vec(cell, 0..=most).prop_map(move |t| (rows, cols, t))
    })
}

/// The build as a stable comparison sort of the triplets: the reference
/// `CooMatrix::to_csr_with` must match, value bits included.
fn reference_build(
    rows: usize,
    cols: usize,
    triplets: &[(usize, usize, f64)],
    policy: DupPolicy,
) -> Result<CsrMatrix<f64>, String> {
    let mut sorted = triplets.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut rowptr = vec![0usize; rows + 1];
    let (mut colidx, mut values): (Vec<usize>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut last = None;
    for (r, c, v) in sorted {
        if last == Some((r, c)) {
            let slot = values.last_mut().unwrap();
            match policy {
                DupPolicy::Error => return Err(format!("duplicate entry at ({r}, {c})")),
                DupPolicy::KeepLast => *slot = v,
                DupPolicy::Sum => *slot += v,
            }
        } else {
            rowptr[r + 1] += 1;
            colidx.push(c);
            values.push(v);
            last = Some((r, c));
        }
    }
    for i in 0..rows {
        rowptr[i + 1] += rowptr[i];
    }
    Ok(CsrMatrix::from_raw_parts(rows, cols, rowptr, colidx, values).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_matches_a_stable_sort_bit_for_bit((rows, cols, t) in triplets()) {
        for policy in [DupPolicy::Error, DupPolicy::KeepLast, DupPolicy::Sum] {
            let mut coo = CooMatrix::new(rows, cols);
            for &(r, c, v) in &t {
                coo.push(r, c, v).unwrap();
            }
            let got = coo.to_csr_with(policy, |a, b| a + b).map_err(|e| e.to_string());
            match (got, reference_build(rows, cols, &t, policy)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.rowptr(), b.rowptr(), "{:?}", policy);
                    prop_assert_eq!(a.colidx(), b.colidx(), "{:?}", policy);
                    let bits = |m: &CsrMatrix<f64>| -> Vec<u64> {
                        m.values().iter().map(|v| v.to_bits()).collect()
                    };
                    prop_assert_eq!(bits(&a), bits(&b), "{:?}", policy);
                }
                (Err(got), Err(want)) => prop_assert!(got.ends_with(&want), "{} vs {}", got, want),
                (got, want) => prop_assert!(false, "{:?}: got {:?}, want {:?}", policy, got, want),
            }
        }
    }

    #[test]
    fn sparse_vec_dense_round_trip(v in sparse_vec(40)) {
        let mut d = vec![f64::NAN; v.capacity()];
        for (i, &x) in v.iter() {
            d[i] = x;
        }
        let back = {
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            for (i, &x) in d.iter().enumerate() {
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
        let mut dense = [0.0f64; 20];
        for (j, &v) in y.iter() {
            dense[j] = v;
        }
        for j in 0..20 {
            prop_assert!((dense[j] - expect[j]).abs() < 1e-6, "col {}", j);
        }
    }

    #[test]
    fn spmspv_variants_agree(a in csr(25, 25), x in sparse_vec(25)) {
        let ctx = ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        let spa = spmspv::spmspv_semiring(&a, &x, &ring, &ctx).unwrap();
        let srt = oracle::spmspv_sort_based(&a, &x, &ring, &ctx).unwrap();
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
    fn select_then_union_recovers(v in sparse_vec(30)) {
        let ctx = ExecCtx::serial();
        // `v` as the single row of a 1 x 30 matrix; select splits it by sign
        let row = CsrMatrix::from_raw_parts(
            1, 30, vec![0, v.nnz()], v.indices().to_vec(), v.values().to_vec(),
        ).unwrap();
        let split = |keep: &(dyn Fn(f64) -> bool + Sync)| {
            let m = select::select_mat(&row, &|_, _, x: f64| keep(x), &ctx);
            let (cols, vals) = m.row(0);
            SparseVec::from_sorted(30, cols.to_vec(), vals.to_vec()).unwrap()
        };
        let pos = split(&|x| x >= 0.0);
        let neg = split(&|x| x < 0.0);
        prop_assert_eq!(pos.nnz() + neg.nnz(), v.nnz());
        let merged = ewise::ewise_add(&pos, &neg, &Plus, &ctx).unwrap();
        prop_assert_eq!(merged, v);
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
