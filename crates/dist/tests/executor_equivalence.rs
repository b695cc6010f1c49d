//! Executor equivalence: every distributed op must produce identical
//! results, an identical comm ledger, and an identical simulated report
//! whether its locale supersteps run on the threaded SPMD executor or
//! serially. Wall-clock parallelism is an implementation detail — the
//! simulated machine must not be able to tell.
//!
//! Also pins the scatter byte-accounting fix (gather and scatter now
//! charge the same per-element payload width) and fault propagation
//! mid-superstep under the threaded executor.

use gblas_core::algebra::{semirings, Plus, Scalar};
use gblas_core::backend::{FirstVisitor, GblasBackend, MaskSpec, PushRule};
use gblas_core::container::{CsrMatrix, DenseVec, SparseVec};
use gblas_core::error::GblasError;
use gblas_core::gen;
use gblas_core::ops::ewise::EwiseVariant;
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::trace::SpanKind;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::ops::{apply, assign, ewise, mxm, reduce, spmspv, spmv, transpose};
use gblas_dist::{
    DistBackend, DistCsrMatrix, DistCtx, DistDenseVec, DistSparseVec, LocaleExecutor, ProcGrid,
};
use gblas_sim::{MachineConfig, SimReport};

/// The grids the acceptance criteria name: a rectangular and a square one.
const GRIDS: [(usize, usize); 2] = [(2, 3), (3, 3)];

fn ctx_with(p: usize, exec: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(p, 24));
    d.set_executor(exec);
    d
}

/// Block-distribute per-source `(index, value)` lists (unsorted) over `p`
/// locales: a batch of frontiers for the backend trait's pushes.
fn frontiers<T: Copy>(
    n: usize,
    rows: impl IntoIterator<Item = Vec<(usize, T)>>,
    p: usize,
) -> Vec<DistSparseVec<T>> {
    let global = |mut pairs: Vec<(usize, T)>| {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let (indices, values) = pairs.into_iter().unzip();
        SparseVec::from_sorted(n, indices, values).unwrap()
    };
    rows.into_iter().map(|pairs| DistSparseVec::from_global(&global(pairs), p)).collect()
}

/// Run `f` once under each executor and assert the communication totals
/// and the phase-structured simulated report agree exactly; hands both
/// results back for the caller's own equality check.
fn run_both<R>(p: usize, label: &str, f: impl Fn(&DistCtx) -> (R, SimReport)) -> (R, R) {
    let dt = ctx_with(p, LocaleExecutor::Threaded);
    let (rt, rep_t) = f(&dt);
    let ds = ctx_with(p, LocaleExecutor::Serial);
    let (rs, rep_s) = f(&ds);
    assert_eq!(dt.comm.totals(), ds.comm.totals(), "{label}: comm totals diverge");
    assert_eq!(rep_t, rep_s, "{label}: simulated reports diverge");
    (rt, rs)
}

/// Push the one frontier `x` through the backend trait: its output row and
/// the op's simulated report.
fn push_one<T: Scalar, V: Scalar, W: Scalar>(
    (da, x): (&DistCsrMatrix<T>, &DistSparseVec<V>),
    rule: &impl PushRule<T, V, W>,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    d: &DistCtx,
) -> Result<(DistSparseVec<W>, SimReport), GblasError> {
    let backend = DistBackend::with_strategy(d, strategy);
    let ys = backend.spmspv(da, std::slice::from_ref(x), rule, None, opts)?;
    Ok((ys.into_iter().next().expect("one row"), backend.take_report()))
}

#[test]
fn spmspv_family_matches_across_executors() {
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let a = gen::erdos_renyi(400, 6, 11);
        let x = gen::random_sparse_vec(400, 40, 12);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, p);
        for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
            for merge in [MergeStrategy::SortBased, MergeStrategy::Bucketed] {
                let (yt, ys) = run_both(p, "spmspv", |d| {
                    spmspv::spmspv_dist_with(
                        &da,
                        &dx,
                        None,
                        strategy,
                        SpMSpVOpts::with_merge(merge),
                        d,
                    )
                    .unwrap()
                });
                assert_eq!(yt, ys, "spmspv {pr}x{pc} {strategy:?} {merge:?}");
            }
        }
        let bits = DenseVec::from_fn(400, |i| i % 3 == 0);
        let dbits = DistDenseVec::from_global(&bits, p);
        let (yt, ys) = run_both(p, "spmspv_masked", |d| {
            let mask = Some(MaskSpec::complement(&dbits));
            spmspv::spmspv_dist_with(&da, &dx, mask, CommStrategy::Fine, SpMSpVOpts::default(), d)
                .unwrap()
        });
        assert_eq!(yt, ys, "spmspv_masked {pr}x{pc}");
        let ring = semirings::plus_times_f64();
        for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
            for merge in [MergeStrategy::SortBased, MergeStrategy::Bucketed] {
                let (yt, ys) = run_both(p, "spmspv_semiring", |d| {
                    let opts = SpMSpVOpts::with_merge(merge);
                    push_one((&da, &dx), &ring, strategy, opts, d).unwrap()
                });
                // Bit-identical floats: the owner drains its inboxes in
                // source-locale order (and the aggregated gather assembles
                // replies in ascending peer order), so the accumulation
                // order is fixed.
                assert_eq!(yt.to_global().indices(), ys.to_global().indices());
                let bits_of = |v: &DistSparseVec<f64>| -> Vec<u64> {
                    v.to_global().values().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits_of(&yt), bits_of(&ys), "semiring {pr}x{pc} {strategy:?} {merge:?}");
            }
        }
    }
}

#[test]
fn spmv_mxm_transpose_match_across_executors() {
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let a = gen::erdos_renyi(300, 5, 21);
        let da = DistCsrMatrix::from_global(&a, grid);

        let xd = DenseVec::from_fn(300, |i| 1.0 + (i % 7) as f64);
        let dxd = DistDenseVec::from_global(&xd, p);
        let (yt, ys) = run_both(p, "spmv", |d| {
            spmv::spmv_dist(&da, &dxd, &semirings::plus_times_f64(), d).unwrap()
        });
        assert_eq!(yt, ys, "spmv {pr}x{pc}");

        let (tt, ts) = run_both(p, "transpose", |d| transpose::transpose_dist(&da, d).unwrap());
        assert_eq!(tt, ts, "transpose {pr}x{pc}");

        if pr == pc {
            let b = gen::erdos_renyi(300, 5, 22);
            let db = DistCsrMatrix::from_global(&b, grid);
            let (ct, cs) = run_both(p, "mxm", |d| {
                mxm::mxm_dist(&da, &db, &semirings::plus_times_f64(), d).unwrap()
            });
            assert_eq!(ct, cs, "mxm {pr}x{pc}");
        }
    }
}

#[test]
fn elementwise_apply_assign_reduce_match_across_executors() {
    for (pr, pc) in GRIDS {
        let p = pr * pc;
        let x = gen::random_sparse_vec(500, 80, 31);
        let x2 = gen::random_sparse_vec(500, 90, 32);
        let dx = DistSparseVec::from_global(&x, p);
        let dx2 = DistSparseVec::from_global(&x2, p);
        let dense = DistDenseVec::from_global(&DenseVec::from_fn(500, |i| (i % 4) as f64), p);

        for variant in [EwiseVariant::Atomic, EwiseVariant::Prefix] {
            let (zt, zs) = run_both(p, "ewise_mult", |d| {
                ewise::ewise_mult_dist(&dx, &dense, &|_: f64, b| b > 1.0, variant, d).unwrap()
            });
            assert_eq!(zt, zs, "ewise_mult p={p} {variant:?}");
        }

        let (vt, vs) = run_both(p, "apply_v1", |d| {
            let mut v = dx.clone();
            let rep = apply::apply_v1(&mut v, &|t: f64| t * 2.0, d).unwrap();
            (v, rep)
        });
        assert_eq!(vt, vs, "apply_v1 p={p}");
        let (vt, vs) = run_both(p, "apply_v2", |d| {
            let mut v = dx.clone();
            let rep = apply::apply_v2(&mut v, &|t: f64| t + 1.5, d).unwrap();
            (v, rep)
        });
        assert_eq!(vt, vs, "apply_v2 p={p}");

        let (vt, vs) = run_both(p, "assign_v1", |d| {
            let mut v = dx.clone();
            let rep = assign::assign_v1(&mut v, &dx2, d).unwrap();
            (v, rep)
        });
        assert_eq!(vt, vs, "assign_v1 p={p}");
        let (vt, vs) = run_both(p, "assign_v2", |d| {
            let mut v = dx.clone();
            let rep = assign::assign_v2(&mut v, &dx2, d).unwrap();
            (v, rep)
        });
        assert_eq!(vt, vs, "assign_v2 p={p}");

        let da = DistCsrMatrix::from_global(&gen::erdos_renyi(500, 5, 33), ProcGrid::new(pr, pc));
        let (st, ss) = run_both(p, "reduce", |d| reduce::reduce_mat_dist(&da, &Plus, d).unwrap());
        assert_eq!(st.to_bits(), ss.to_bits(), "reduce p={p}");
    }
}

/// Satellite of the scatter-accounting fix: gather and scatter must charge
/// the same per-element payload width. With `f32` outputs the old
/// hardcoded 16-byte scatter claim breaks this (the real pair is
/// `usize + f32` = 12 bytes on 64-bit targets).
#[test]
fn gather_and_scatter_charge_the_same_element_width() {
    let n = 300;
    let a64 = gen::erdos_renyi(n, 5, 41);
    let mut trips: Vec<(usize, usize, f32)> = Vec::new();
    for i in 0..n {
        let (cols, vals) = a64.row(i);
        for (c, v) in cols.iter().zip(vals) {
            trips.push((i, *c, *v as f32));
        }
    }
    let a = CsrMatrix::from_triplets(n, n, &trips).unwrap();
    let x64 = gen::random_sparse_vec(n, 40, 42);
    let x = SparseVec::from_sorted(
        n,
        x64.indices().to_vec(),
        x64.values().iter().map(|&v| v as f32).collect(),
    )
    .unwrap();
    let grid = ProcGrid::new(2, 3);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, grid.locales());
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.enable_tracing();
    let ring = semirings::plus_times::<f32>();
    let (fine, opts) = (CommStrategy::Fine, SpMSpVOpts::default());
    let _: (DistSparseVec<f32>, _) = push_one((&da, &dx), &ring, fine, opts, &dctx).unwrap();

    let elem = (std::mem::size_of::<usize>() + std::mem::size_of::<f32>()) as u64;
    let trace = dctx.recorder().snapshot();
    let (mut saw_gather, mut saw_scatter) = (false, false);
    for span in trace.spans.iter().filter(|s| s.kind == SpanKind::LocaleComm) {
        let Some(cs) = &span.comm else { continue };
        if cs.is_empty() {
            continue;
        }
        match span.name.as_str() {
            // The fine gather issues two dependent messages per element.
            "gather" => {
                assert_eq!(
                    cs.bytes * 2,
                    cs.fine_dependent_msgs * elem,
                    "gather width off at locale {:?}",
                    span.locale
                );
                saw_gather = true;
            }
            // The fine scatter issues one message per claimed element.
            "scatter" => {
                assert_eq!(
                    cs.bytes,
                    cs.fine_msgs * elem,
                    "scatter width off at locale {:?}",
                    span.locale
                );
                saw_scatter = true;
            }
            _ => {}
        }
    }
    assert!(saw_gather && saw_scatter, "trace must carry both comm phases");
}

/// A single-source aggregated push is a batch of one, on every event:
/// the whole comm ledger (gather, mask gather, scatter) and the simulated
/// report of `spmspv_dist_with` at `Bulk` equal those of the backend
/// trait's slice push over a one-source batch, masked and unmasked; the
/// semiring push, which has no single-source entry point, runs through the
/// trait alone. Each locale opens the
/// gather with exactly one message of `nnz × elem_bytes` per remote row
/// peer whose shard is nonempty — no request round, no empty reply — and
/// logs no zero-byte gather event anywhere.
#[test]
fn single_source_bulk_push_is_a_batch_of_one() {
    type Push<'a> = Box<dyn Fn(&DistCtx) -> SimReport + 'a>;
    let n = 350;
    let elem_bytes = (2 * std::mem::size_of::<usize>()) as u64;
    // Entries in two bands only, so some row peers hold an empty shard.
    let entries: Vec<(usize, usize)> =
        (0..n).step_by(7).filter(|i| !(120..=300).contains(i)).map(|i| (i, i)).collect();
    let a = gen::erdos_renyi(n, 6, 71);
    let bits = DenseVec::from_fn(n, |i| i % 5 == 0);
    let ring = semirings::plus_times_f64();
    let opts = SpMSpVOpts::default();
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&a, grid);
        let f = frontiers(n, [entries.clone()], p);
        let fv = frontiers(n, [entries.iter().map(|&(i, _)| (i, i as f64)).collect()], p);
        let visited = DistDenseVec::from_global(&bits, p);
        let dx = &f[0];
        let spec = [MaskSpec::complement(&visited)];
        for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
            let ledger = |run: &dyn Fn(&DistCtx) -> SimReport| {
                let dctx = ctx_with(p, exec);
                dctx.comm.record_history();
                let report = run(&dctx);
                (dctx.comm.history(), report)
            };
            let cases: [(&str, Vec<Push>); 4] = [
                (
                    "first-visitor masked",
                    vec![
                        Box::new(|d| {
                            let mask = Some(MaskSpec::complement(&visited));
                            spmspv::spmspv_dist_with(&da, dx, mask, CommStrategy::Bulk, opts, d)
                                .unwrap()
                                .1
                        }),
                        Box::new(|d| {
                            let b = DistBackend::with_strategy(d, CommStrategy::Bulk);
                            b.spmspv(&da, &f, &FirstVisitor, Some(&spec), opts).unwrap();
                            b.take_report()
                        }),
                    ],
                ),
                (
                    "first-visitor unmasked",
                    vec![
                        Box::new(|d| {
                            spmspv::spmspv_dist_with(&da, dx, None, CommStrategy::Bulk, opts, d)
                                .unwrap()
                                .1
                        }),
                        Box::new(|d| {
                            let b = DistBackend::with_strategy(d, CommStrategy::Bulk);
                            b.spmspv(&da, &f, &FirstVisitor, None, opts).unwrap();
                            b.take_report()
                        }),
                    ],
                ),
                (
                    "semiring unmasked",
                    vec![Box::new(|d| {
                        let b = DistBackend::with_strategy(d, CommStrategy::Bulk);
                        let _: Vec<DistSparseVec<f64>> =
                            b.spmspv(&da, &fv, &ring, None, opts).unwrap();
                        b.take_report()
                    })],
                ),
                (
                    "semiring masked",
                    vec![Box::new(|d| {
                        let b = DistBackend::with_strategy(d, CommStrategy::Bulk);
                        let _: Vec<DistSparseVec<f64>> =
                            b.spmspv(&da, &fv, &ring, Some(&spec), opts).unwrap();
                        b.take_report()
                    })],
                ),
            ];
            for (what, runs) in &cases {
                let label = format!("{pr}x{pc} {exec:?} {what}");
                let (solo_events, solo_report) = ledger(runs[0].as_ref());
                for batch in &runs[1..] {
                    let (batch_events, batch_report) = ledger(batch.as_ref());
                    assert_eq!(solo_events, batch_events, "{label}: k = 1 logs differently");
                    assert_eq!(solo_report, batch_report, "{label}: k = 1 prices differently");
                }
                let gathers: Vec<_> = solo_events.iter().filter(|e| e.phase == "gather").collect();
                assert!(gathers.iter().all(|e| e.bytes > 0), "{label}: zero-byte gather event");
                for l in 0..p {
                    let (row, _) = grid.coords(l);
                    let expected: Vec<(usize, u64, u64)> = grid
                        .row_locales(row)
                        .filter(|&src| src != l)
                        .map(|src| (src, dx.shard(src).nnz() as u64))
                        .filter(|&(_, nnz)| nnz > 0)
                        .map(|(src, nnz)| (src, 1, nnz * elem_bytes))
                        .collect();
                    let opened: Vec<(usize, u64, u64)> = gathers
                        .iter()
                        .filter(|e| e.src == l)
                        .take(expected.len())
                        .map(|e| (e.dst, e.msgs, e.bytes))
                        .collect();
                    assert_eq!(opened, expected, "{label}: locale {l}'s row-peer messages");
                }
            }
        }
    }
}

/// Drive every push and dense entry point — the single-source kernels
/// and the backend trait's batched pushes under `strategy`, plus the dense
/// SpMV alone and batched, which all run on the same two engines — with
/// the comm layer failing at
/// each of `fail_points`, under both executors. Every call must return
/// `CommFailure` (the test completing at all is the no-deadlock proof)
/// and leave its operands exactly as they were.
fn assert_faults_surface_everywhere(strategy: CommStrategy, seed: u64, fail_points: &[u64]) {
    let grid = ProcGrid::new(2, 3);
    let p = grid.locales();
    let n = 300;
    let a = gen::erdos_renyi(n, 6, seed);
    let x = gen::random_sparse_vec(n, 40, seed + 1);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, p);
    let bits = DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i % 3 == 0), p);
    let ring = semirings::plus_times_f64();
    // Three sources, each a shifted copy of the 40-entry frontier, so the
    // batched gather and scatter have traffic on every locale pair.
    let shifted = |s: usize| -> Vec<usize> { x.indices().iter().map(|&i| (i + s) % n).collect() };
    let f_parent =
        frontiers(n, (0..3).map(|s| shifted(s).into_iter().map(|i| (i, i)).collect()), p);
    let f_value = frontiers(
        n,
        (0..3).map(|s| shifted(s).into_iter().map(|i| (i, 1.0 + i as f64)).collect()),
        p,
    );
    let visited: Vec<_> = (0..3).map(|_| MaskSpec::complement(&bits)).collect();
    let xs: Vec<DistDenseVec<f64>> = (0..3)
        .map(|s| {
            DistDenseVec::from_global(&DenseVec::from_fn(n, |i| 1.0 + ((i + s) % 7) as f64), p)
        })
        .collect();
    let (dx0, bits0, xs0) = (dx.clone(), bits.clone(), xs.clone());
    let (f_parent0, f_value0) = (f_parent.clone(), f_value.clone());

    type Run<'a> = Box<dyn Fn(&DistCtx) -> Result<(), GblasError> + 'a>;
    let opts = SpMSpVOpts::default();
    let entry_points: Vec<(&str, Run<'_>)> = vec![
        (
            "spmspv_dist_with",
            Box::new(|d| spmspv::spmspv_dist_with(&da, &dx, None, strategy, opts, d).map(drop)),
        ),
        (
            "spmspv_dist_with masked",
            Box::new(|d| {
                let mask = Some(MaskSpec::complement(&bits));
                spmspv::spmspv_dist_with(&da, &dx, mask, strategy, opts, d).map(drop)
            }),
        ),
        (
            "one-source spmspv_semiring",
            Box::new(|d| {
                let y: Result<(DistSparseVec<f64>, _), _> =
                    push_one((&da, &dx), &ring, strategy, opts, d);
                y.map(drop)
            }),
        ),
        (
            "batched spmspv_first_visitor",
            Box::new(|d| {
                let b = DistBackend::with_strategy(d, strategy);
                b.spmspv(&da, &f_parent, &FirstVisitor, Some(&visited), opts).map(drop)
            }),
        ),
        (
            "batched spmspv_semiring",
            Box::new(|d| {
                let b = DistBackend::with_strategy(d, strategy);
                let ys: Result<Vec<DistSparseVec<f64>>, _> =
                    b.spmspv(&da, &f_value, &ring, None, opts);
                ys.map(drop)
            }),
        ),
        ("spmv_dist", Box::new(|d| spmv::spmv_dist(&da, &xs[0], &ring, d).map(drop))),
        (
            "batched spmv",
            Box::new(|d| {
                let ys: Result<Vec<DistDenseVec<f64>>, _> =
                    DistBackend::new(d).spmv(&da, &xs, &ring);
                ys.map(drop)
            }),
        ),
    ];
    for (name, run) in &entry_points {
        for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
            for &fail_at in fail_points {
                let dctx = ctx_with(p, exec);
                dctx.comm.fail_after(fail_at);
                let r = run(&dctx);
                assert!(
                    matches!(r, Err(GblasError::CommFailure(_))),
                    "{name} {strategy:?} fail_after={fail_at} {exec:?}: expected CommFailure, got {r:?}"
                );
            }
        }
    }
    drop(entry_points);
    assert_eq!((&dx, &bits, &xs), (&dx0, &bits0, &xs0), "a failed op touched its operands");
    assert_eq!(f_parent, f_parent0, "a failed batched push touched its frontier");
    assert_eq!(f_value, f_value0, "a failed batched push touched its frontier");
}

/// Fail the comm layer at several points: the first transfer (gather),
/// and later ones that land mid-superstep with other locale tasks in
/// flight.
#[test]
fn mid_superstep_fault_propagates_without_deadlock() {
    assert_faults_surface_everywhere(CommStrategy::Fine, 51, &[0, 3, 7]);
}

/// The same no-deadlock guarantee on the aggregated-gather (Bulk) path:
/// faults landing in the gather and scatter supersteps must all surface
/// as `CommFailure` under both executors.
#[test]
fn mid_superstep_fault_propagates_on_aggregated_gather() {
    assert_faults_surface_everywhere(CommStrategy::Bulk, 53, &[0, 3, 9, 15]);
}

/// Workspace pooling must be invisible: running the same op sequence with
/// the per-locale pools enabled (the default) and disabled (the
/// `GBLAS_WORKSPACE=off` escape hatch) must produce bit-identical
/// results, comm ledgers, and simulated reports, under both executors.
/// Each op runs twice so the pooled pass exercises actual shelf reuse,
/// not just first-checkout allocation.
#[test]
fn workspace_pooling_is_bit_invisible_across_executors() {
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let a = gen::erdos_renyi(350, 6, 81);
        let x = gen::random_sparse_vec(350, 50, 82);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, p);
        let xd = DenseVec::from_fn(350, |i| 1.0 + (i % 5) as f64);
        let dxd = DistDenseVec::from_global(&xd, p);
        let ring = semirings::plus_times_f64();
        for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
            let run = |pooled: bool| {
                let dctx = ctx_with(p, exec);
                dctx.set_workspace_enabled(pooled);
                let mut outs: Vec<(Vec<usize>, Vec<u64>, SimReport)> = Vec::new();
                for _ in 0..2 {
                    for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                        for merge in [MergeStrategy::SortBased, MergeStrategy::Bucketed] {
                            let opts = SpMSpVOpts::with_merge(merge);
                            let (y, rep) =
                                push_one((&da, &dx), &ring, strategy, opts, &dctx).unwrap();
                            let g = y.to_global();
                            let bits = g.values().iter().map(|v| v.to_bits()).collect();
                            outs.push((g.indices().to_vec(), bits, rep));
                        }
                    }
                    let (y, rep) = spmv::spmv_dist(&da, &dxd, &ring, &dctx).unwrap();
                    let g = y.to_global();
                    let bits = g.as_slice().iter().map(|v| v.to_bits()).collect();
                    outs.push((Vec::new(), bits, rep));
                }
                let ws = dctx.workspace_stats();
                if pooled {
                    assert!(ws.pool_hits > 0, "{pr}x{pc} {exec:?}: pooled run never reused");
                } else {
                    assert_eq!(ws.pool_hits, 0, "{pr}x{pc} {exec:?}: disabled pool served hits");
                    assert!(ws.pool_misses > 0, "{pr}x{pc} {exec:?}: disabled pool uncharged");
                }
                (outs, dctx.comm.totals())
            };
            assert_eq!(run(true), run(false), "{pr}x{pc} {exec:?}: pooling visible");
        }
    }
}

/// Fault injection with pooling on: a mid-superstep comm failure must
/// surface identically with pools enabled and disabled, and the pool
/// must survive the error path — the same context retries the op after
/// `clear_faults` and produces the correct result from reused shelves.
#[test]
fn workspace_pooling_survives_comm_faults() {
    let grid = ProcGrid::new(2, 3);
    let p = grid.locales();
    let a = gen::erdos_renyi(300, 6, 91);
    let x = gen::random_sparse_vec(300, 40, 92);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, p);
    let expect = {
        let dctx = ctx_with(p, LocaleExecutor::Serial);
        spmspv::spmspv_dist(&da, &dx, &dctx).unwrap().0
    };
    for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
        for pooled in [true, false] {
            let dctx = ctx_with(p, exec);
            dctx.set_workspace_enabled(pooled);
            // Warm the shelves (pooled) or prove cold-path parity (unpooled).
            let warm = spmspv::spmspv_dist(&da, &dx, &dctx).unwrap().0;
            assert_eq!(warm.to_global(), expect.to_global(), "{exec:?} pooled={pooled}");
            for fail_at in [0, 3, 7] {
                dctx.comm.fail_after(fail_at);
                let r = spmspv::spmspv_dist(&da, &dx, &dctx);
                assert!(
                    matches!(r, Err(GblasError::CommFailure(_))),
                    "{exec:?} pooled={pooled} fail_after={fail_at}: got {r:?}"
                );
                dctx.comm.clear_faults();
                let retry = spmspv::spmspv_dist(&da, &dx, &dctx).unwrap().0;
                assert_eq!(
                    retry.to_global(),
                    expect.to_global(),
                    "{exec:?} pooled={pooled} fail_at={fail_at}: retry diverged"
                );
            }
        }
    }
}

#[test]
fn failed_in_place_op_does_not_corrupt_its_operand() {
    let x = gen::random_sparse_vec(400, 60, 61);
    let dx0 = DistSparseVec::from_global(&x, 6);
    let mut dx1 = dx0.clone();
    let dctx = ctx_with(6, LocaleExecutor::Threaded);
    dctx.comm.fail_after(0);
    let r = apply::apply_v1(&mut dx1, &|v: f64| v + 1.0, &dctx);
    assert!(matches!(r, Err(GblasError::CommFailure(_))));
    assert_eq!(dx1, dx0, "failed apply_v1 must leave the vector untouched");
}
