//! Property tests of the C-style API's write-back semantics
//! (mask / accumulator / replace), checked against a naive dense model.

use gblas::prelude::*;
use gblas_core::api::{apply, vxm, Descriptor};
use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use proptest::prelude::*;

fn sparse_vec(cap: usize) -> impl Strategy<Value = SparseVec<f64>> {
    prop::collection::btree_set(0..cap, 0..=cap.min(24)).prop_flat_map(move |idx| {
        let indices: Vec<usize> = idx.into_iter().collect();
        let n = indices.len();
        prop::collection::vec(-20.0f64..20.0, n)
            .prop_map(move |values| SparseVec::from_sorted(cap, indices.clone(), values).unwrap())
    })
}

/// Dense model of the GraphBLAS write-back:
/// `w⟨mask⟩ = w accum t` with optional replace.
fn model_write_back(
    w: &SparseVec<f64>,
    t: &SparseVec<f64>,
    mask: &[bool],
    complement: bool,
    accum: bool,
    replace: bool,
) -> Vec<Option<f64>> {
    let n = w.capacity();
    let mut out: Vec<Option<f64>> = vec![None; n];
    for (i, &v) in w.iter() {
        out[i] = Some(v);
    }
    let allowed = |i: usize| (i < mask.len() && mask[i]) != complement;
    #[allow(clippy::needless_range_loop)] // index drives three closures
    for i in 0..n {
        if allowed(i) {
            if let Some(&tv) = t.get(i) {
                out[i] = Some(match (accum, w.get(i)) {
                    (true, Some(&wv)) => wv + tv,
                    _ => tv,
                });
            }
        } else if replace {
            out[i] = None;
        }
    }
    out
}

fn as_model(v: &SparseVec<f64>) -> Vec<Option<f64>> {
    let mut out = vec![None; v.capacity()];
    for (i, &x) in v.iter() {
        out[i] = Some(x);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_write_back_matches_model(
        w0 in sparse_vec(20),
        u in sparse_vec(20),
        mask_bits in prop::collection::vec(any::<bool>(), 20),
        complement in any::<bool>(),
        use_accum in any::<bool>(),
        replace in any::<bool>(),
    ) {
        let ctx = ExecCtx::serial();
        let bits = DenseVec::from_vec(mask_bits.clone());
        let mask = VecMask::dense(&bits);
        let desc = Descriptor { mask_complement: complement, replace };
        let mut w = w0.clone();
        let op = |x: f64| x * 2.0 + 1.0;
        if use_accum {
            apply(&mut w, Some(&mask), Some(&gblas_core::algebra::Plus), &op, &u, desc, &ctx).unwrap();
        } else {
            apply(&mut w, Some(&mask), None::<&gblas_core::algebra::Plus>, &op, &u, desc, &ctx).unwrap();
        }
        // model: t = op applied to u
        let t = {
            let vals: Vec<f64> = u.values().iter().map(|&x| x * 2.0 + 1.0).collect();
            SparseVec::from_sorted(20, u.indices().to_vec(), vals).unwrap()
        };
        let expect = model_write_back(&w0, &t, &mask_bits, complement, use_accum, replace);
        let got = as_model(&w);
        for i in 0..20 {
            match (expect[i], got[i]) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "slot {}: {} vs {}", i, a, b),
                other => prop_assert!(false, "slot {} mismatch: {:?}", i, other),
            }
        }
    }

    #[test]
    fn vxm_unmasked_equals_kernel(seed in 0u64..200, wseed in 0u64..50) {
        let a = gen::erdos_renyi(30, 3, seed);
        let x = gen::random_sparse_vec(30, 6, seed + 1);
        let w0 = gen::random_sparse_vec(30, wseed as usize % 10, wseed);
        let ctx = ExecCtx::serial();
        let mut w = w0.clone();
        vxm(
            &mut w,
            None,
            None::<&gblas_core::algebra::Plus>,
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::none(),
            &ctx,
        ).unwrap();
        let t = gblas_core::ops::spmspv::spmspv_semiring(
            &a, &x, &semirings::plus_times_f64(), &ctx,
        ).unwrap();
        // every t entry lands in w; untouched w entries survive
        for (i, &tv) in t.iter() {
            prop_assert_eq!(w.get(i), Some(&tv));
        }
        for (i, &wv) in w0.iter() {
            if t.get(i).is_none() {
                prop_assert_eq!(w.get(i), Some(&wv));
            }
        }
    }

    #[test]
    fn double_complement_is_identity(
        w0 in sparse_vec(16),
        u in sparse_vec(16),
        mask_bits in prop::collection::vec(any::<bool>(), 16),
    ) {
        let ctx = ExecCtx::serial();
        let bits = DenseVec::from_vec(mask_bits);
        let once = VecMask::dense(&bits);
        let twice = once.complement().complement();
        let mut w1 = w0.clone();
        let mut w2 = w0.clone();
        let op = |x: f64| -x;
        apply(&mut w1, Some(&once), None::<&gblas_core::algebra::Plus>, &op, &u, Descriptor::none(), &ctx).unwrap();
        apply(&mut w2, Some(&twice), None::<&gblas_core::algebra::Plus>, &op, &u, Descriptor::none(), &ctx).unwrap();
        prop_assert_eq!(w1, w2);
    }

    #[test]
    fn io_round_trip_property(seed in 0u64..300) {
        let a = gen::erdos_renyi(25, 3, seed);
        let mut buf = Vec::new();
        gblas_core::io::write_matrix_market(&mut buf, &a).unwrap();
        let b = gblas_core::io::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(a.nnz(), b.nnz());
        for (i, j, &v) in a.iter() {
            let got = b.get(i, j).copied().unwrap();
            prop_assert!((got - v).abs() < 1e-9);
        }
    }
}

#[test]
fn csr_matrix_is_reachable_from_prelude() {
    let _m: CsrMatrix<f64> = CsrMatrix::empty(2, 2);
}
