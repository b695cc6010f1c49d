//! Differential property tests for the SpMSpV merge strategies.
//!
//! The bucketed merge (the default, the paper's reference \[9\]) must
//! return what the paper's sort-based merge (Listing 7, the oracle)
//! returns:
//!
//! * the output vector (indices, values, nnz) matches the sort-based path
//!   bit for bit, and a dense O(n) oracle, on every random
//!   matrix/vector/mask;
//! * both walk the same row entries and emit the same values;
//! * the bucketed path performs **zero** sort comparisons
//!   (`sort_elems == 0`, no `sort` phase) and **zero** atomics, and the
//!   sort-based path never touches the `bucket` phase.
//!
//! And each kernel must be observationally identical to its own serial
//! schedule on any number of real threads: the output *and* the complete
//! work profile.
//!
//! Failures replay exactly: the shim reports the failing case's index and
//! seed, and `PROPTEST_REPLAY=<case>` re-runs just that case.

use gblas_core::algebra::semirings;
use gblas_core::container::{CooMatrix, CsrMatrix, DenseVec, DupPolicy, SparseVec};
use gblas_core::mask::VecMask;
use gblas_core::ops::spmspv::{
    spmspv_first_visitor, spmspv_semiring_masked, MergeStrategy, SpMSpVOpts, PHASE_BUCKET,
    PHASE_OUTPUT, PHASE_SORT, PHASE_SPA,
};
use gblas_core::par::ExecCtx;
use oracle::spmspv_sort_based;
use proptest::prelude::*;

mod oracle;

const CAP: usize = 30;

fn sparse_vec(cap: usize) -> impl Strategy<Value = SparseVec<f64>> {
    prop::collection::btree_set(0..cap, 0..=cap.min(64)).prop_flat_map(move |idx| {
        let indices: Vec<usize> = idx.into_iter().collect();
        let n = indices.len();
        prop::collection::vec(-100.0f64..100.0, n)
            .prop_map(move |values| SparseVec::from_sorted(cap, indices.clone(), values).unwrap())
    })
}

fn csr(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    prop::collection::btree_set((0..rows, 0..cols), 0..=64).prop_flat_map(move |cells| {
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

fn sorted_opts() -> SpMSpVOpts {
    SpMSpVOpts::with_merge(MergeStrategy::SortBased)
}

fn bucketed_opts() -> SpMSpVOpts {
    SpMSpVOpts::with_merge(MergeStrategy::Bucketed)
}

/// A vector's indices and the bits of its values, for bit-for-bit checks.
fn value_bits(v: &SparseVec<f64>) -> (Vec<usize>, Vec<u64>) {
    (v.indices().to_vec(), v.values().iter().map(|x| x.to_bits()).collect())
}

/// The dense O(n) oracle for `plus_times`: accumulate every stored
/// product, then compare column by column.
fn plus_times_oracle(a: &CsrMatrix<f64>, x: &SparseVec<f64>) -> (Vec<f64>, Vec<bool>) {
    let mut acc = vec![0.0f64; a.ncols()];
    let mut hit = vec![false; a.ncols()];
    for (i, &xv) in x.iter() {
        let (cols, vals) = a.row(i);
        for (&j, &av) in cols.iter().zip(vals) {
            acc[j] += xv * av;
            hit[j] = true;
        }
    }
    (acc, hit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn semiring_strategies_match_each_other_and_dense_oracle(
        a in csr(CAP, CAP), x in sparse_vec(CAP), threads in 1usize..5
    ) {
        let ring = semirings::plus_times_f64();
        let ctx_s = ExecCtx::new(threads, 1);
        let ctx_b = ExecCtx::new(threads, 1);
        let ys = spmspv_semiring_masked(&a, &x, &ring, None, sorted_opts(), &ctx_s)
            .unwrap();
        let yb = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx_b)
            .unwrap();

        // strategy vs strategy: the same bits
        prop_assert_eq!(value_bits(&ys), value_bits(&yb));

        // both vs the dense O(n) oracle
        let (acc, hit) = plus_times_oracle(&a, &x);
        let expect: Vec<usize> = (0..CAP).filter(|&j| hit[j]).collect();
        prop_assert_eq!(yb.indices(), &expect[..]);
        for (j, &v) in yb.iter() {
            prop_assert!((v - acc[j]).abs() < 1e-6, "col {}", j);
        }

        // and vs the all-sorting oracle algorithm
        let srt = spmspv_sort_based(&a, &x, &ring, &ExecCtx::serial()).unwrap();
        prop_assert_eq!(yb.indices(), srt.indices());
        for (p, q) in yb.values().iter().zip(srt.values()) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_phase_counters_agree_and_bucketed_never_sorts(
        a in csr(CAP, CAP), x in sparse_vec(CAP), threads in 1usize..5
    ) {
        let ring = semirings::plus_times_f64();
        let ctx_s = ExecCtx::new(threads, 1);
        let ctx_b = ExecCtx::new(threads, 1);
        spmspv_semiring_masked(&a, &x, &ring, None, sorted_opts(), &ctx_s).unwrap();
        spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx_b).unwrap();
        let ps = ctx_s.take_profile();
        let pb = ctx_b.take_profile();

        // the same row entries walked and values emitted under either merge
        prop_assert_eq!(ps.phase(PHASE_SPA).flops, pb.phase(PHASE_BUCKET).flops);
        prop_assert_eq!(ps.phase(PHASE_OUTPUT).spa_touches, pb.phase(PHASE_OUTPUT).spa_touches);
        // the bucketed path never compares and never claims atomically;
        // the sorted path never buckets
        prop_assert!(pb.phase(PHASE_SORT).is_empty());
        prop_assert_eq!((pb.total().sort_elems, pb.total().atomics), (0, 0));
        prop_assert!(ps.phase(PHASE_BUCKET).is_empty());
    }

    #[test]
    fn masked_first_visitor_strategies_agree(
        a in csr(CAP, CAP), x in sparse_vec(CAP), mask_seed in 0u64..1000
    ) {
        let bits = gblas_core::gen::random_dense_bool(CAP, 0.5, mask_seed);
        let mask = VecMask::dense(&bits);
        // the min-claim resolves parents the same way under real
        // threads, so the two strategies must match bit for bit
        let ctx = ExecCtx::new(4, 2);
        let ys = spmspv_first_visitor(&a, &x, Some(&mask), sorted_opts(), &ctx).unwrap();
        let yb = spmspv_first_visitor(&a, &x, Some(&mask), bucketed_opts(), &ctx).unwrap();
        prop_assert_eq!(&ys, &yb);

        // dense oracle on the structure: exactly the maskable columns
        // reachable from x's rows, each claimed by a legitimate parent
        let mut reach = [false; CAP];
        for (i, _) in x.iter() {
            let (cols, _) = a.row(i);
            for &j in cols {
                if bits[j] {
                    reach[j] = true;
                }
            }
        }
        let expect: Vec<usize> = (0..CAP).filter(|&j| reach[j]).collect();
        prop_assert_eq!(yb.indices(), &expect[..]);
        for (j, &parent) in yb.iter() {
            prop_assert!(x.get(parent).is_some(), "parent {} not in x", parent);
            prop_assert!(a.get(parent, j).is_some(), "no edge {} -> {}", parent, j);
        }
    }

    /// Under real threads nothing the kernels return or record follows
    /// arrival order — the sort-based claim lists merge by owner, the
    /// bucketed ranges drain in task order: square and rectangular
    /// matrices, any frontier, mask or none (complemented or not), either
    /// merge, 1..=8 logical tasks on 1, 2 and 4 real threads; first
    /// visitor and the f64 `plus_times` and `min_plus` semirings, the
    /// bucketed results bit for bit the sort-based ones.
    #[test]
    fn first_visitor_output_and_profile_do_not_depend_on_real_threads(
        (a, x) in (1usize..=CAP, 1usize..=CAP)
            .prop_flat_map(|(rows, cols)| (csr(rows, cols), sparse_vec(rows))),
        mask_seed in 0u64..3000, logical in 1usize..=8
    ) {
        let allowed = gblas_core::gen::random_dense_bool(a.ncols(), 0.5, mask_seed);
        let mask = match mask_seed % 3 {
            0 => None,
            1 => Some(VecMask::dense(&allowed)),
            _ => Some(VecMask::dense(&allowed).complement()),
        };
        let run = |opts: SpMSpVOpts, real: usize| {
            let ctx = ExecCtx::new(logical, real);
            let m = mask.as_ref();
            let fv = spmspv_first_visitor(&a, &x, m, opts, &ctx).unwrap();
            let ring = semirings::plus_times_f64();
            let pt = spmspv_semiring_masked(&a, &x, &ring, m, opts, &ctx).unwrap();
            let ring = semirings::min_plus();
            let mp = spmspv_semiring_masked(&a, &x, &ring, m, opts, &ctx).unwrap();
            ((fv, value_bits(&pt), value_bits(&mp)), ctx.take_profile())
        };
        let oracle = run(sorted_opts(), 1).0;
        for opts in [sorted_opts(), bucketed_opts()] {
            let expect = run(opts, 1);
            prop_assert_eq!(&expect.0, &oracle, "{:?}", opts.merge);
            for real in [2, 4] {
                prop_assert_eq!(&run(opts, real), &expect, "{:?} real={}", opts.merge, real);
            }
        }
    }

    #[test]
    fn masked_semiring_strategies_agree(
        a in csr(CAP, CAP), x in sparse_vec(CAP), mask_seed in 0u64..1000
    ) {
        let bits = gblas_core::gen::random_dense_bool(CAP, 0.4, mask_seed);
        let mask = VecMask::dense(&bits);
        let ring = semirings::plus_times_f64();
        let ctx = ExecCtx::new(3, 1);
        let ys = spmspv_semiring_masked(&a, &x, &ring, Some(&mask), sorted_opts(), &ctx)
            .unwrap();
        let yb = spmspv_semiring_masked(&a, &x, &ring, Some(&mask), bucketed_opts(), &ctx)
            .unwrap();
        prop_assert_eq!(value_bits(&ys), value_bits(&yb));
        for (j, _) in yb.iter() {
            prop_assert!(bits[j], "masked-out column {} present", j);
        }
    }

    #[test]
    fn min_plus_strategies_agree_with_dense_oracle(a in csr(CAP, CAP), x in sparse_vec(CAP)) {
        let ring = semirings::min_plus();
        let ctx = ExecCtx::serial();
        let ys = spmspv_semiring_masked(&a, &x, &ring, None, sorted_opts(), &ctx)
            .unwrap();
        let yb = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx)
            .unwrap();
        prop_assert_eq!(value_bits(&ys), value_bits(&yb));
        let mut best = [f64::INFINITY; CAP];
        let mut hit = [false; CAP];
        for (i, &xv) in x.iter() {
            let (cols, vals) = a.row(i);
            for (&j, &av) in cols.iter().zip(vals) {
                best[j] = best[j].min(xv + av);
                hit[j] = true;
            }
        }
        let expect: Vec<usize> = (0..CAP).filter(|&j| hit[j]).collect();
        prop_assert_eq!(yb.indices(), &expect[..]);
        for (j, &v) in yb.iter() {
            prop_assert!((v - best[j]).abs() < 1e-6, "col {}", j);
        }
    }

    /// Workspace reuse across *changing* problem sizes: one shared
    /// `ExecCtx` (and thus one workspace pool) services a random sequence
    /// of grow/shrink capacities, and every call must match a fresh-pool
    /// oracle bit for bit — a capacity miss must re-size cleanly and a
    /// shrink must never leak stale SPA stamps or vector contents from an
    /// earlier, larger checkout.
    #[test]
    fn shared_workspace_across_varying_sizes_matches_fresh_ctx(
        sizes in prop::collection::vec(2usize..80, 2..8), seed in 0u64..1000
    ) {
        let ring = semirings::plus_times_f64();
        let shared = ExecCtx::new(3, 1);
        for (k, &n) in sizes.iter().enumerate() {
            let s = seed + k as u64;
            let a = gblas_core::gen::erdos_renyi(n, 3.min(n - 1).max(1), s);
            let x = gblas_core::gen::random_sparse_vec(n, (n / 2).max(1), s + 500);
            for opts in [sorted_opts(), bucketed_opts()] {
                let fresh = ExecCtx::new(3, 1);
                let got = spmspv_semiring_masked(&a, &x, &ring, None, opts, &shared)
                    .unwrap();
                let want = spmspv_semiring_masked(&a, &x, &ring, None, opts, &fresh)
                    .unwrap();
                prop_assert_eq!(&got, &want, "semiring n={} step {}", n, k);
                let gf = spmspv_first_visitor(&a, &x, None, opts, &shared).unwrap();
                let wf = spmspv_first_visitor(&a, &x, None, opts, &fresh).unwrap();
                prop_assert_eq!(&gf, &wf, "first_visitor n={} step {}", n, k);
            }
        }
        // The shared context must actually have been reusing shelves —
        // otherwise this test proves nothing about pooling.
        let ws = shared.workspace().stats();
        prop_assert!(ws.pool_hits > 0, "no shelf reuse across {} sizes", sizes.len());
    }

    #[test]
    fn dense_vector_exercises_every_bucket(a in csr(CAP, CAP), fill in -5.0f64..5.0) {
        // a fully dense input vector drives nnz through every per-task
        // bucket range — the worst case for the occupancy-scan drain
        let x = SparseVec::from_sorted(CAP, (0..CAP).collect(), vec![fill; CAP]).unwrap();
        let ring = semirings::plus_times_f64();
        for threads in [1, 3, 16, 64] {
            let ctx = ExecCtx::new(threads, 1);
            let ys = spmspv_semiring_masked(&a, &x, &ring, None, sorted_opts(), &ctx)
                .unwrap();
            let yb = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx)
                .unwrap();
            prop_assert_eq!(value_bits(&ys), value_bits(&yb), "threads {}", threads);
        }
    }
}

/// Empty and degenerate inputs hit the bucket-partition edge cases
/// (`capacity < nbuckets`, zero-capacity vectors) deterministically.
#[test]
fn degenerate_shapes_agree() {
    let ring = semirings::plus_times_f64();
    for (rows, cols) in [(1, 1), (1, 7), (7, 1), (3, 2)] {
        let a = CsrMatrix::<f64>::empty(rows, cols);
        let x = SparseVec::from_sorted(rows, vec![], Vec::<f64>::new()).unwrap();
        let ctx = ExecCtx::new(8, 1);
        let ys = spmspv_semiring_masked(&a, &x, &ring, None, sorted_opts(), &ctx).unwrap();
        let yb = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx).unwrap();
        assert_eq!(ys, yb);
        assert_eq!(yb.nnz(), 0);
    }
    // more tasks than columns: buckets of width >= 1 via the split cap
    let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]).unwrap();
    let x = SparseVec::from_sorted(2, vec![0, 1], vec![1.0, 1.0]).unwrap();
    let ctx = ExecCtx::new(32, 1);
    let ys = spmspv_semiring_masked(&a, &x, &ring, None, sorted_opts(), &ctx).unwrap();
    let yb = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx).unwrap();
    assert_eq!(ys, yb);
    assert_eq!(yb.indices(), &[0, 1]);
}

/// Deterministic shrink pin: after a large-capacity run populates the
/// pooled SPA, a much smaller run on the same context must produce only
/// in-range indices and exactly the fresh-context result — generation
/// stamping, not re-zeroing, is what hides the stale large-run slots.
#[test]
fn pooled_spa_shrink_leaves_no_stale_values() {
    let ring = semirings::plus_times_f64();
    let shared = ExecCtx::new(4, 1);
    let big = gblas_core::gen::erdos_renyi(200, 5, 7);
    let xb = gblas_core::gen::random_sparse_vec(200, 60, 8);
    for opts in [sorted_opts(), bucketed_opts()] {
        spmspv_semiring_masked::<_, _, f64, _, _>(&big, &xb, &ring, None, opts, &shared).unwrap();
    }
    let small = gblas_core::gen::erdos_renyi(6, 2, 9);
    let xs = gblas_core::gen::random_sparse_vec(6, 3, 10);
    for opts in [sorted_opts(), bucketed_opts()] {
        let got = spmspv_semiring_masked(&small, &xs, &ring, None, opts, &shared).unwrap();
        let want =
            spmspv_semiring_masked(&small, &xs, &ring, None, opts, &ExecCtx::new(4, 1)).unwrap();
        assert!(got.indices().iter().all(|&j| j < 6), "stale out-of-range index");
        assert_eq!(got, want);
    }
    assert!(shared.workspace().stats().pool_hits > 0);
}

/// Pooling is real: a second same-shape call takes every buffer it
/// checks out from the pool, on one real thread or two.
#[test]
fn second_same_shape_call_takes_every_buffer_from_the_pool() {
    let a = gblas_core::gen::erdos_renyi(500, 6, 3);
    let x = gblas_core::gen::random_sparse_vec(500, 80, 4);
    let ring = semirings::plus_times_f64();
    for real in [1, 2] {
        let ctx = ExecCtx::new(4, real);
        let call = || {
            spmspv_first_visitor(&a, &x, None, bucketed_opts(), &ctx).unwrap();
            spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx).unwrap();
        };
        call();
        let before = ctx.workspace().stats();
        call();
        let second = ctx.workspace().stats().saturating_sub(&before);
        assert_eq!((second.pool_misses, second.allocs), (0, 0), "real={real}");
        assert!(second.pool_hits > 0, "real={real}");
    }
}

/// The mask in the bucketed drain must consult SPA occupancy, not the
/// mask: a masked column that was never claimed must not appear even if
/// its bucket range is scanned.
#[test]
fn bucket_drain_respects_spa_occupancy() {
    let mut coo = CooMatrix::new(4, CAP);
    for j in [0usize, 10, 20, 29] {
        coo.push(j % 4, j, 1.0).unwrap();
    }
    let a: CsrMatrix<f64> = coo.to_csr(DupPolicy::Error).unwrap();
    let x = SparseVec::from_sorted(4, vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
    let ring = semirings::plus_times_f64();
    let ctx = ExecCtx::new(6, 1);
    let yb = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx).unwrap();
    assert_eq!(yb.indices(), &[0, 10, 20, 29]);
}

/// `DenseVec` import is used by the mask tests via `random_dense_bool`;
/// keep a direct structural check too so the import carries weight.
#[test]
fn masked_output_is_subset_of_unmasked() {
    let a = gblas_core::gen::erdos_renyi(CAP, 4, 99);
    let x = gblas_core::gen::random_sparse_vec(CAP, 10, 100);
    let bits: DenseVec<bool> = gblas_core::gen::random_dense_bool(CAP, 0.5, 101);
    let mask = VecMask::dense(&bits);
    let ring = semirings::plus_times_f64();
    let ctx = ExecCtx::serial();
    let full = spmspv_semiring_masked(&a, &x, &ring, None, bucketed_opts(), &ctx).unwrap();
    let masked = spmspv_semiring_masked(&a, &x, &ring, Some(&mask), bucketed_opts(), &ctx).unwrap();
    for (j, _) in masked.iter() {
        assert!(bits[j]);
        assert!(full.get(j).is_some());
    }
}
