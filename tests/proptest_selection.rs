//! Differential property tests for adaptive kernel selection.
//!
//! The `auto` policy switches between push (SpMSpV) and pull (transpose
//! row scan) kernels mid-traversal, so its correctness rests on two
//! claims, each tested here on randomized inputs:
//!
//! * **per-level bit-identity** — at any traversal state (frontier +
//!   visited set), the pull kernel produces exactly the parents the
//!   masked push kernel produces, on real threads too, so the direction
//!   choice is unobservable in the output;
//! * **whole-run bit-identity** — BFS/CC/SSSP under `auto`, static
//!   `push`, and static `pull` return identical results (exact `f64`
//!   equality for SSSP) on both backends and, for the distributed
//!   backend, under both locale executors.
//!
//! Failures replay exactly: the shim reports the failing case's index and
//! seed, and `PROPTEST_REPLAY=<case>` re-runs just that case.

use gblas::prelude::*;
use gblas_core::backend::{FirstVisitor, GblasBackend, MaskSpec, SharedBackend};
use gblas_core::gen;
use gblas_core::ops::selection::SelectionPolicy;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, LocaleExecutor};
use gblas_graph::{bfs_selected, bfs_selected_dist, bfs_with, connected_components_on, sssp_on};
use proptest::prelude::*;

const POLICIES: [SelectionPolicy; 3] =
    [SelectionPolicy::Auto, SelectionPolicy::Push, SelectionPolicy::Pull];

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];

fn dist_ctx_with(p: usize, executor: LocaleExecutor) -> DistCtx {
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
    dctx.set_executor(executor);
    dctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At an arbitrary traversal state the two direction kernels are bit
    /// for bit interchangeable: both claim the minimum in-frontier
    /// in-neighbor as each unvisited destination's parent.
    #[test]
    fn pull_level_matches_masked_push_level(
        seed in 0u64..1000, d in 1usize..8, fden in 1u32..9, vden in 0u32..9
    ) {
        const N: usize = 120;
        let a = gen::erdos_renyi(N, d, seed);
        let fbits = gen::random_dense_bool(N, f64::from(fden) / 10.0, seed ^ 0xf);
        let vrand = gen::random_dense_bool(N, f64::from(vden) / 10.0, seed ^ 0x5e);
        // BFS invariant: the frontier is part of the visited set.
        let visited = DenseVec::from_fn(N, |i| fbits[i] || vrand[i]);
        let frontier_v: Vec<usize> = (0..N).filter(|&i| fbits[i]).collect();

        let ctx = ExecCtx::new(4, 2);
        let backend = SharedBackend::new(&ctx);
        let frontier = backend
            .sparse_from_sorted(N, frontier_v.clone(), frontier_v)
            .unwrap();
        let pushed = backend
            .spmspv(
                &a,
                std::slice::from_ref(&frontier),
                &FirstVisitor,
                Some(&[MaskSpec::complement(&visited)]),
                SpMSpVOpts::default(),
            )
            .unwrap()
            .remove(0);

        let pulled = backend.pull_first_visitor(&a, &frontier, &visited).unwrap();

        prop_assert_eq!(backend.sparse_entries(&pulled), backend.sparse_entries(&pushed));
    }

    /// Shared backend: every policy returns the explicit push's result.
    #[test]
    fn shared_bfs_and_cc_agree_across_policies(
        seed in 0u64..500, d in 1usize..7, source in 0usize..100, threads in 1usize..5
    ) {
        let a = gen::erdos_renyi(100, d, seed);
        let ctx = ExecCtx::new(threads, 2);
        let backend = SharedBackend::new(&ctx);
        let expect = bfs_with(&a, source, SpMSpVOpts::default(), &ctx).unwrap();
        let mut decision_logs = Vec::new();
        for policy in POLICIES {
            let (r, decisions) =
                bfs_selected(&a, source, policy, SpMSpVOpts::default(), &ctx).unwrap();
            prop_assert_eq!(&r, &expect, "bfs under {:?}", policy);
            prop_assert_eq!(decisions.len(), decision_logs.first().map_or(decisions.len(), Vec::len),
                "every policy runs the same number of levels");
            decision_logs.push(decisions);
        }

        let sym = gen::erdos_renyi_symmetric(80, d.min(4), seed);
        let (labels, _) =
            connected_components_on(&backend, &sym, None, SpMSpVOpts::default()).unwrap();
        for policy in POLICIES {
            let (got, _) =
                connected_components_on(&backend, &sym, Some(policy), SpMSpVOpts::default())
                    .unwrap();
            prop_assert_eq!(got.as_slice(), labels.as_slice(), "cc under {:?}", policy);
        }
    }

    /// Shared backend: SSSP distances agree exactly (not approximately)
    /// across policies — the adaptive driver must take min over the same
    /// effective term set every round.
    #[test]
    fn shared_sssp_agrees_bitwise_across_policies(seed in 0u64..300, d in 1usize..6) {
        let a = gen::erdos_renyi(80, d, seed);
        let ctx = ExecCtx::serial();
        let backend = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        let (expect, _) = sssp_on(&backend, &a, &[0], None, opts).unwrap().remove(0);
        for policy in POLICIES {
            let (got, _) = sssp_on(&backend, &a, &[0], Some(policy), opts).unwrap().remove(0);
            prop_assert_eq!(got.as_slice(), expect.as_slice(), "sssp under {:?}", policy);
        }
    }

    /// The decision sequence is a pure function of the traversal: the
    /// same input always yields the same per-level choices.
    #[test]
    fn auto_decisions_are_deterministic(seed in 0u64..300, d in 1usize..7) {
        let a = gen::erdos_renyi(90, d, seed);
        let ctx = ExecCtx::serial();
        let (r1, d1) =
            bfs_selected(&a, 0, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).unwrap();
        let (r2, d2) =
            bfs_selected(&a, 0, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).unwrap();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(d1, d2);
    }
}

proptest! {
    // Distributed runs sweep policies x executors, so fewer cases each.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Distributed backend: every policy under either locale executor
    /// returns the shared static result, on arbitrary grid shapes.
    #[test]
    fn dist_bfs_agrees_across_policies_and_executors(
        seed in 0u64..200, d in 1usize..6, pr in 1usize..=3, pc in 1usize..=3
    ) {
        let a = gen::erdos_renyi(60, d, seed);
        let expect = bfs_with(&a, 0, SpMSpVOpts::default(), &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        let mut seqs = Vec::new();
        for executor in EXECUTORS {
            for policy in POLICIES {
                let dctx = dist_ctx_with(grid.locales(), executor);
                let (r, decisions, _) = bfs_selected_dist(
                    &da, 0, policy, CommStrategy::Bulk, SpMSpVOpts::default(), &dctx,
                ).unwrap();
                prop_assert_eq!(&r, &expect, "bfs under {:?}/{:?}", policy, executor);
                if policy == SelectionPolicy::Auto {
                    seqs.push(decisions);
                }
            }
        }
        // the executor cannot influence the (density-driven) decisions
        prop_assert_eq!(&seqs[0], &seqs[1]);
    }

    /// Distributed CC and SSSP under `auto` match the shared static
    /// drivers bit for bit.
    #[test]
    fn dist_cc_and_sssp_agree_with_shared(seed in 0u64..200, pr in 1usize..=2, pc in 1usize..=2) {
        let grid = ProcGrid::new(pr, pc);

        let ctx = ExecCtx::serial();
        let shared = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        let sym = gen::erdos_renyi_symmetric(50, 3, seed);
        let (labels, _) = connected_components_on(&shared, &sym, None, opts).unwrap();
        let dsym = DistCsrMatrix::from_global(&sym, grid);
        for policy in POLICIES {
            let dctx = dist_ctx_with(grid.locales(), LocaleExecutor::Serial);
            let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            let (got, _) = connected_components_on(&b, &dsym, Some(policy), opts).unwrap();
            prop_assert_eq!(got.as_slice(), labels.as_slice(), "cc under {:?}", policy);
        }

        let a = gen::erdos_renyi(50, 3, seed);
        let (expect, _) = sssp_on(&shared, &a, &[0], None, opts).unwrap().remove(0);
        let da = DistCsrMatrix::from_global(&a, grid);
        for policy in POLICIES {
            let dctx = dist_ctx_with(grid.locales(), LocaleExecutor::Serial);
            let b = DistBackend::with_strategy(&dctx, CommStrategy::Bulk);
            let (got, _) = sssp_on(&b, &da, &[0], Some(policy), opts).unwrap().remove(0);
            prop_assert_eq!(got.as_slice(), expect.as_slice(), "sssp under {:?}", policy);
        }
    }
}
