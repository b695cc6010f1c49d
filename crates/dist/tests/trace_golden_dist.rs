//! Golden-file coverage for real distributed SpMSpV, SpMV and SpGEMM
//! traces, single-source and batched.
//!
//! One small fixed workload each, exported through the byte-deterministic
//! Chrome sink. The semiring SpMSpV runs (once per merge strategy) pin the span
//! structure the observability stack promises: the `bucket` appends (and
//! the absence of any sort work) under the bucketed merge, and the
//! aggregated one-superstep `gather` under `CommStrategy::Bulk` (one
//! message per remote row peer with a nonempty shard, no request round).
//! The SpGEMM run pins the multi-stage SUMMA's
//! `mxm` op span (algo/stages/grid attributes) and its `select` span
//! carrying the per-locale density-adaptive kernel census
//! (heap/hash/spa). The remaining cases pin every other entry point of
//! the push and dense pipelines on 4 locales — masked first-visitor SpMSpV
//! under both comm strategies, the backend trait's two batched `Bulk`
//! pushes (masked first-visitor, unmasked semiring) and its batched SpMV
//! at k=3, and the dense SpMV — so their spans, counters, comm events and
//! pool telemetry cannot drift unnoticed. The serial executor
//! makes each run — and therefore each file — exactly reproducible.
//!
//! Regenerate after an intentional format or pricing change with
//! `GBLAS_REGEN_GOLDEN=1 cargo test -p gblas-dist --test trace_golden_dist`.

use gblas_core::algebra::semirings;
use gblas_core::backend::{FirstVisitor, GblasBackend, MaskSpec};
use gblas_core::container::{DenseVec, SparseVec};
use gblas_core::gen;
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::trace::sink::chrome_trace;
use gblas_core::trace::{SpanKind, Trace};
use gblas_dist::ops::mxm::mxm_dist;
use gblas_dist::ops::spmspv::{spmspv_dist_with, CommStrategy, PHASE_GATHER, PHASE_LOCAL};
use gblas_dist::ops::spmv::spmv_dist;
use gblas_dist::{
    DistBackend, DistCsrMatrix, DistCtx, DistDenseVec, DistSparseVec, LocaleExecutor, ProcGrid,
};
use gblas_sim::MachineConfig;

/// Distribute the fixed ER(60, 4) matrix over `grid` and trace whatever
/// `run` executes on a fresh serial-executor context.
fn traced(grid: ProcGrid, run: impl FnOnce(&DistCsrMatrix<f64>, &DistCtx)) -> Trace {
    let da = DistCsrMatrix::from_global(&gen::erdos_renyi(60, 4, 5), grid);
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_executor(LocaleExecutor::Serial);
    dctx.enable_tracing();
    run(&da, &dctx);
    dctx.recorder().snapshot()
}

/// Compare `trace`'s Chrome export against `tests/golden/<name>.json`
/// (or rewrite the file under `GBLAS_REGEN_GOLDEN`).
fn check_golden(name: &str, trace: &Trace) {
    let got = chrome_trace(trace);
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.json"));
    if std::env::var_os("GBLAS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    assert_eq!(got, want, "{name} trace drifted from the golden file");
}

/// The 4-locale grid every push and dense case runs on.
fn grid_2x2() -> ProcGrid {
    ProcGrid::new(2, 2)
}

/// The 12-entry sparse frontier every single-source case multiplies.
fn frontier(p: usize) -> DistSparseVec<f64> {
    DistSparseVec::from_global(&gen::random_sparse_vec(60, 12, 6), p)
}

fn traced_run(merge: MergeStrategy) -> Trace {
    let grid = grid_2x2();
    traced(grid, |da, dctx| {
        let (ring, x) = (semirings::plus_times_f64(), frontier(grid.locales()));
        let backend = DistBackend::with_strategy(dctx, CommStrategy::Bulk);
        let opts = SpMSpVOpts::with_merge(merge);
        let _: Vec<DistSparseVec<f64>> =
            backend.spmspv(da, std::slice::from_ref(&x), &ring, None, opts).expect("spmspv");
    })
}

#[test]
fn sort_merge_trace_matches_golden() {
    check_golden("spmspv_bulk_sort", &traced_run(MergeStrategy::SortBased));
}

#[test]
fn bucket_merge_trace_matches_golden() {
    check_golden("spmspv_bulk_bucket", &traced_run(MergeStrategy::Bucketed));
}

/// Masked first-visitor SpMSpV (the BFS level kernel) under `strategy`.
fn traced_first_visitor(strategy: CommStrategy) -> Trace {
    let grid = grid_2x2();
    let p = grid.locales();
    traced(grid, |da, dctx| {
        let visited = DistDenseVec::from_global(&DenseVec::from_fn(60, |i| i % 3 == 0), p);
        spmspv_dist_with(
            da,
            &frontier(p),
            Some(MaskSpec::complement(&visited)),
            strategy,
            SpMSpVOpts::default(),
            dctx,
        )
        .expect("masked spmspv");
    })
}

/// Three sources' frontiers (two entries each, spread over the blocks).
fn batch<T: Copy>(p: usize, value: impl Fn(usize) -> T) -> Vec<DistSparseVec<T>> {
    let source = |at: [usize; 2]| SparseVec::from_sorted(60, at.to_vec(), at.map(&value).to_vec());
    let sources = [[0usize, 31], [7, 44], [21, 58]].map(|at| source(at).expect("batch"));
    sources.iter().map(|x| DistSparseVec::from_global(x, p)).collect()
}

/// Every remaining entry point of the push and dense pipelines on 4
/// locales: one golden each.
#[test]
fn push_and_dense_kernel_traces_match_goldens() {
    let grid = grid_2x2();
    let p = grid.locales();
    check_golden("spmspv_fv_masked_fine", &traced_first_visitor(CommStrategy::Fine));
    check_golden("spmspv_fv_masked_bulk", &traced_first_visitor(CommStrategy::Bulk));
    let batched_fv = traced(grid, |da, dctx| {
        let visited: Vec<DistDenseVec<bool>> = (0..3)
            .map(|s| DistDenseVec::from_global(&DenseVec::from_fn(60, |i| i % (3 + s) == 0), p))
            .collect();
        let masks: Vec<_> = visited.iter().map(MaskSpec::complement).collect();
        let backend = DistBackend::with_strategy(dctx, CommStrategy::Bulk);
        let opts = SpMSpVOpts::default();
        backend.spmspv(da, &batch(p, |i| i), &FirstVisitor, Some(&masks), opts).expect("batch fv");
    });
    check_golden("spmspv_fv_masked_bulk_k3", &batched_fv);
    let batched_ring = traced(grid, |da, dctx| {
        let ring = semirings::plus_times_f64();
        let f = batch(p, |i| 1.0 + i as f64);
        let backend = DistBackend::with_strategy(dctx, CommStrategy::Bulk);
        let _: Vec<DistSparseVec<f64>> =
            backend.spmspv(da, &f, &ring, None, SpMSpVOpts::default()).expect("batch semiring");
    });
    check_golden("spmspv_semiring_bulk_k3", &batched_ring);
    let dense = |s: usize| {
        DistDenseVec::from_global(&DenseVec::from_fn(60, |i| 1.0 + ((i + s) % 7) as f64), p)
    };
    let spmv = traced(grid, |da, dctx| {
        spmv_dist(da, &dense(0), &semirings::plus_times_f64(), dctx).expect("spmv");
    });
    check_golden("spmv", &spmv);
    let batched_spmv = traced(grid, |da, dctx| {
        let xs: Vec<DistDenseVec<f64>> = (0..3).map(dense).collect();
        let ring = semirings::plus_times_f64();
        let _: Vec<DistDenseVec<f64>> =
            DistBackend::new(dctx).spmv(da, &xs, &ring).expect("batched spmv");
    });
    check_golden("spmv_k3", &batched_spmv);
}

/// Structural claims the golden bytes encode, asserted directly so a
/// regeneration cannot silently drop them.
#[test]
fn traces_carry_the_promised_spans() {
    let sorted = traced_run(MergeStrategy::SortBased);
    let bucketed = traced_run(MergeStrategy::Bucketed);

    // The dist trace folds the core merge phases into each locale's
    // `local` compute span (the standalone `bucket`/`sort` spans are
    // pinned by the core golden test), but their counters survive: the
    // sorted run records sort comparisons and no bucket appends, the
    // bucketed run the exact opposite.
    let totals = |t: &Trace| {
        let local = t.spans.iter().filter(|s| s.kind == SpanKind::LocaleCompute);
        local.filter(|s| s.name == PHASE_LOCAL).fold((0u64, 0u64), |(se, bm), s| {
            (se + s.counters.sort_elems, bm + s.counters.bytes_moved)
        })
    };
    let (sorted_se, sorted_appended) = totals(&sorted);
    let (bucketed_se, bucketed_appended) = totals(&bucketed);
    assert!(sorted_se > 0, "sorted run recorded no sort comparisons");
    assert_eq!(sorted_appended, 0, "sorted run recorded bucket appends");
    assert_eq!(bucketed_se, 0, "bucketed run recorded sort comparisons");
    assert!(bucketed_appended > 0, "bucketed run recorded no bucket appends");
    for t in [&sorted, &bucketed] {
        // the aggregated gather prices whole coalesced messages only
        let gather_comm: Vec<_> = t
            .spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::LocaleComm
                    && s.name == PHASE_GATHER
                    && s.comm.as_ref().is_some_and(|c| !c.is_empty())
            })
            .collect();
        assert!(!gather_comm.is_empty(), "no gather comm spans recorded");
        for s in &gather_comm {
            let c = s.comm.as_ref().unwrap();
            assert_eq!(c.fine_msgs, 0, "aggregated gather sent fine messages");
            assert_eq!(c.fine_dependent_msgs, 0, "aggregated gather sent dependent messages");
            assert!(c.bulk_msgs > 0);
        }
    }
    // the op span records which merge strategy produced it
    let merge_attr = |t: &Trace| {
        t.spans
            .iter()
            .find(|s| s.kind == SpanKind::Op)
            .and_then(|s| s.attrs.iter().find(|(k, _)| k == "merge").map(|(_, v)| v.clone()))
    };
    assert_eq!(merge_attr(&sorted).as_deref(), Some("sort"));
    assert_eq!(merge_attr(&bucketed).as_deref(), Some("bucket"));
}

/// The SpGEMM golden: multi-stage DCSC SUMMA on the rectangular 2x3
/// grid — the shape the square-grid guard used to reject outright.
fn traced_mxm_run() -> Trace {
    let grid = ProcGrid::new(2, 3);
    let a = gen::erdos_renyi(60, 4, 7);
    let b = gen::erdos_renyi(60, 3, 8);
    let da = DistCsrMatrix::from_global(&a, grid);
    let db = DistCsrMatrix::from_global(&b, grid);
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_executor(LocaleExecutor::Serial);
    dctx.enable_tracing();
    let ring = semirings::plus_times_f64();
    mxm_dist(&da, &db, &ring, &dctx).expect("mxm");
    dctx.recorder().snapshot()
}

#[test]
fn mxm_summa_trace_matches_golden() {
    check_golden("mxm_summa_2x3", &traced_mxm_run());
}

/// Structural claims the mxm golden bytes encode, asserted directly so a
/// regeneration cannot silently drop them: the op span names the
/// algorithm, stage count and grid shape; it is the multiply's only op
/// span (no locale chooses a kernel, so nothing records a choice); and
/// every broadcast is a whole coalesced (bulk) message — the DCSC pipeline
/// never sends fine-grained traffic.
#[test]
fn mxm_trace_carries_stage_attrs() {
    let trace = traced_mxm_run();
    let attr = |s: &gblas_core::trace::Span, k: &str| {
        s.attrs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    let ops: Vec<_> = trace.spans.iter().filter(|s| s.kind == SpanKind::Op).collect();
    assert_eq!(ops.len(), 1, "one op span per multiply");
    let op = ops[0];
    assert_eq!(op.name, "mxm_dist");
    assert_eq!(attr(op, "algo").as_deref(), Some("summa2d"));
    assert_eq!(attr(op, "grid").as_deref(), Some("2x3"));
    let stages: usize = attr(op, "stages").expect("stages attr").parse().expect("numeric stages");
    assert!(stages > 1, "multi-stage plan expected on a 2x3 grid, got {stages}");
    for s in trace.spans.iter().filter(|s| s.kind == SpanKind::LocaleComm) {
        if let Some(c) = s.comm.as_ref().filter(|c| !c.is_empty()) {
            assert_eq!(c.fine_msgs, 0, "{}: SUMMA sent fine messages", s.name);
            assert_eq!(c.fine_dependent_msgs, 0, "{}: SUMMA sent dependent messages", s.name);
        }
    }
}
