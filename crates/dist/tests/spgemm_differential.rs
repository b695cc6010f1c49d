//! Differential guarantee for the hypersparse multi-stage SUMMA SpGEMM:
//! against the shared-memory `mxm` reference, the distributed multiply
//! must be *bit-identical* on integer semirings — across every
//! rectangular grid from 1×1 to 4×3, under both locale executors,
//! masked and unmasked, with and without an emit rule — bit-identical on
//! f64 too for the 2-D variant, must leave the wire exactly as recorded
//! (pinned comm-ledger digests), and must recover cleanly from a mid-stage
//! injected communication fault through `Comm::with_retry`.
//!
//! Bit-identity across grid shapes is a real invariant, not luck: a 2-D
//! locale computes every output entry in one pass of the dense SPA shared
//! memory runs over its whole row panel of `A`, contributions folded in
//! ascending-k order with left association, so the reduction tree is
//! independent of how the grid slices the inner dimension.

use gblas_core::algebra::semirings;
use gblas_core::container::CsrMatrix;
use gblas_core::error::GblasError;
use gblas_core::gen;
use gblas_core::ops::apply::map_mat;
use gblas_core::ops::mxm::{mxm, mxm_emit};
use gblas_core::ops::select::select_mat;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::mxm::{mxm_dist_emit, mxm_dist_masked, mxm_dist_masked_with, MxmAlgo};
use gblas_dist::{DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_sim::MachineConfig;
use proptest::prelude::*;

/// Every grid shape the acceptance criteria name: strips, squares, and
/// both orientations of the rectangles (p = 6 is the shape that used to
/// be rejected outright).
const GRIDS: [(usize, usize); 9] =
    [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 6), (3, 3), (4, 3)];

fn ctx_with(p: usize, exec: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(p, 24));
    d.set_executor(exec);
    d
}

/// An integer-valued test matrix: deterministic structure from the
/// generator, values derived from coordinates so every entry is distinct
/// enough to catch misrouted contributions.
fn int_matrix(n: usize, degree: usize, seed: u64) -> CsrMatrix<u64> {
    let a = gen::erdos_renyi(n, degree, seed);
    map_mat(&a, &|i, j, _| (i as u64) * 31 + (j as u64) % 17 + 1, &ExecCtx::serial())
}

/// Run the distributed multiply under both executors, assert the comm
/// ledgers and results agree, and hand back the global result.
fn run_both_executors(
    grid: ProcGrid,
    a: &CsrMatrix<u64>,
    b: &CsrMatrix<u64>,
    mask: Option<&CsrMatrix<u64>>,
) -> CsrMatrix<u64> {
    let p = grid.locales();
    let mut out: Option<CsrMatrix<u64>> = None;
    let mut totals: Option<(u64, u64, u64)> = None;
    for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
        let dctx = ctx_with(p, exec);
        let da = DistCsrMatrix::from_global(a, grid);
        let db = DistCsrMatrix::from_global(b, grid);
        let dm = mask.map(|m| DistCsrMatrix::from_global(m, grid));
        let ring = semirings::plus_times::<u64>();
        let (c, report) = mxm_dist_masked(&da, &db, &ring, dm.as_ref(), &dctx).unwrap();
        assert!(report.total() > 0.0, "simulated time must be charged");
        let g = c.to_global().unwrap();
        match &out {
            None => out = Some(g),
            Some(prev) => assert_eq!(prev, &g, "executors diverge on {grid:?}"),
        }
        match &totals {
            None => totals = Some(dctx.comm.totals()),
            Some(prev) => {
                assert_eq!(prev, &dctx.comm.totals(), "comm ledgers diverge on {grid:?}")
            }
        }
    }
    out.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unmasked SpGEMM over plus-times on u64: the distributed result is
    /// bit-identical to the shared-memory reference at every grid shape
    /// and under both executors.
    #[test]
    fn summa_matches_shared_bit_for_bit(
        n in 40usize..120,
        deg in 2usize..6,
        seed in 1u64..500,
    ) {
        let a = int_matrix(n, deg, seed);
        let b = int_matrix(n, deg + 1, seed.wrapping_mul(7).wrapping_add(3));
        let ring = semirings::plus_times::<u64>();
        let expect: CsrMatrix<u64> =
            mxm::<_, _, _, _, _, bool>(&a, &b, &ring, None, &ExecCtx::serial()).unwrap();
        for (pr, pc) in GRIDS {
            let got = run_both_executors(ProcGrid::new(pr, pc), &a, &b, None);
            prop_assert_eq!(&got, &expect, "grid {}x{}", pr, pc);
        }
    }

    /// Masked SpGEMM: the structural mask commutes with stage-wise
    /// accumulation, so the masked distributed product matches the masked
    /// shared-memory product exactly on every grid — under a mask sparser
    /// than the product, one of comparable density, and one denser than it
    /// (where every product position is admitted and most mask positions
    /// stay empty).
    #[test]
    fn masked_summa_matches_shared_bit_for_bit(
        n in 40usize..100,
        deg in 2usize..6,
        seed in 1u64..500,
    ) {
        let a = int_matrix(n, deg, seed);
        let b = int_matrix(n, deg, seed.wrapping_add(41));
        let ring = semirings::plus_times::<u64>();
        for mask_deg in [1, deg + 2, n / 2] {
            // The mask rides a third structure so kept entries are a strict
            // subset of the unmasked product on interesting inputs.
            let mask = int_matrix(n, mask_deg, seed.wrapping_add(97));
            let expect: CsrMatrix<u64> =
                mxm(&a, &b, &ring, Some(&mask), &ExecCtx::serial()).unwrap();
            for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 2), (4, 3)] {
                let got = run_both_executors(ProcGrid::new(pr, pc), &a, &b, Some(&mask));
                prop_assert_eq!(&got, &expect, "grid {}x{} mask degree {}", pr, pc, mask_deg);
            }
        }
    }

    /// A mid-stage injected comm fault surfaces as `CommFailure`, and a
    /// `Comm::with_retry` recovers to the exact shared-memory result in one
    /// retry — the fault must not corrupt any stationary block or cached
    /// plan.
    #[test]
    fn mid_stage_fault_recovers_through_with_retry(
        seed in 1u64..300,
        fail_at in 0u64..12,
    ) {
        let a = int_matrix(60, 4, seed);
        let b = int_matrix(60, 4, seed.wrapping_add(11));
        let ring = semirings::plus_times::<u64>();
        let expect: CsrMatrix<u64> =
            mxm::<_, _, _, _, _, bool>(&a, &b, &ring, None, &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(2, 3);
        let dctx = ctx_with(6, LocaleExecutor::Threaded);
        let da = DistCsrMatrix::from_global(&a, grid);
        let db = DistCsrMatrix::from_global(&b, grid);

        // Direct call with the hook armed must fail with CommFailure.
        dctx.comm.fail_after(fail_at);
        let err = mxm_dist_masked::<_, _, u64, _, _, bool>(&da, &db, &ring, None, &dctx)
            .expect_err("armed fault must surface");
        prop_assert!(
            matches!(err, GblasError::CommFailure(_)),
            "expected CommFailure, got {:?}", err
        );

        // The hook disarms after firing once, so a retry loop recovers;
        // re-arm first to prove the recovery really passes through the
        // failure path inside `with_retry`.
        dctx.comm.clear_faults();
        dctx.comm.fail_after(fail_at);
        let (c, _) = dctx
            .comm
            .with_retry(3, || {
                mxm_dist_masked::<_, _, u64, _, _, bool>(&da, &db, &ring, None, &dctx)
            })
            .expect("retry must recover once the fault disarms");
        prop_assert_eq!(c.to_global().unwrap(), expect);
        prop_assert_eq!(dctx.metrics().snapshot().retries, 1);
    }

    /// An emit rule sees finished entries only: on every grid, under both
    /// executors and every SUMMA variant, masked and unmasked, the fused
    /// distributed multiply equals shared `select(map(mxm))` bit for bit —
    /// the rule is not linear in `v`, so one applied to a stage's partial
    /// sum would not — and a faulted run retried through
    /// `Comm::with_retry` still applies it exactly once.
    #[test]
    fn emit_rule_matches_shared_select_of_map_bit_for_bit(
        n in 40usize..100,
        deg in 2usize..6,
        seed in 1u64..500,
        fail_at in 0u64..12,
    ) {
        let a = int_matrix(n, deg, seed);
        let b = int_matrix(n, deg, seed.wrapping_add(41));
        let mask = int_matrix(n, deg + 2, seed.wrapping_add(97));
        let ring = semirings::plus_times::<u64>();
        let serial = ExecCtx::serial();
        let map = |_: usize, j: usize, v: u64| v.wrapping_mul(v) % 1009 + j as u64;
        let keep = |i: usize, _: usize, w: u64| !(w + i as u64).is_multiple_of(3);
        let rule = |i, j, v| Some(map(i, j, v)).filter(|&w| keep(i, j, w));
        for mask in [None, Some(&mask)] {
            let product: CsrMatrix<u64> = mxm(&a, &b, &ring, mask, &serial).unwrap();
            let expect = select_mat(&map_mat(&product, &map, &serial), &keep, &serial);
            prop_assert!(expect.nnz() > 0 && expect.nnz() < product.nnz());
            let fused = |grid: ProcGrid, algo: MxmAlgo, dctx: &DistCtx| {
                let da = DistCsrMatrix::from_global(&a, grid);
                let db = DistCsrMatrix::from_global(&b, grid);
                let dm = mask.map(|m| DistCsrMatrix::from_global(m, grid));
                mxm_dist_emit(&da, &db, &ring, dm.as_ref(), Some(&rule), algo, dctx)
                    .map(|(c, _)| c.to_global().unwrap())
            };
            for (pr, pc) in GRIDS {
                let grid = ProcGrid::new(pr, pc);
                for (algo, layers) in [(MxmAlgo::Summa2d, 1), (MxmAlgo::Summa3d { layers: 2 }, 2)] {
                    for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
                        let got = fused(grid, algo, &ctx_with(grid.locales() * layers, exec)).unwrap();
                        prop_assert_eq!(&got, &expect, "grid {}x{} {:?} {:?}", pr, pc, algo, exec);
                    }
                }
            }
            // The fault fires, costing one retry, when a clean run sends
            // more than `fail_at` messages.
            let clean = ctx_with(6, LocaleExecutor::Threaded);
            fused(ProcGrid::new(2, 3), MxmAlgo::Summa2d, &clean).unwrap();
            let fires = fail_at < clean.comm.call_count();
            let dctx = ctx_with(6, LocaleExecutor::Threaded);
            dctx.comm.fail_after(fail_at);
            let got = dctx
                .comm
                .with_retry(3, || fused(ProcGrid::new(2, 3), MxmAlgo::Summa2d, &dctx))
                .expect("retry must recover once the fault disarms");
            prop_assert_eq!(&got, &expect, "after a fault at message {}", fail_at);
            prop_assert_eq!(dctx.metrics().snapshot().retries, u64::from(fires));
        }
    }
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pinned digests of the wire: every comm event `(phase, src, dst, msgs,
/// bytes)` of one `mxm_dist_emit`, in the ledger's canonical order
/// ([`gblas_dist::comm::Comm::history`]), per `(grid, layers, masked)`.
/// Recorded on the commit *before* the local phase stopped forming stage
/// partials; what a locale does with the panels it received is not the
/// wire's business, so these must not be regenerated for a change to the
/// local phase. An emit rule does not move them either: the 3-D merge
/// ships partial sums, which the rule never sees.
const LEDGERS: [((usize, usize), usize, bool, u64); 12] = [
    ((2, 2), 1, false, 0xec7d_f4bc_fca9_56cb),
    ((2, 2), 1, true, 0xec7d_f4bc_fca9_56cb),
    ((2, 2), 2, false, 0xf51f_6185_9245_d095),
    ((2, 2), 2, true, 0x89b2_e10f_7eca_2302),
    ((2, 3), 1, false, 0xea3f_a9bc_5172_ae4e),
    ((2, 3), 1, true, 0xea3f_a9bc_5172_ae4e),
    ((2, 3), 2, false, 0x9325_ef1e_29f9_b42d),
    ((2, 3), 2, true, 0x627b_4cef_f458_8c7b),
    ((3, 2), 1, false, 0x93bd_94da_1117_9e1c),
    ((3, 2), 1, true, 0x93bd_94da_1117_9e1c),
    ((3, 2), 2, false, 0xa693_b14a_fe4f_bb1c),
    ((3, 2), 2, true, 0x2289_0909_3412_cd22),
];

#[test]
fn comm_ledger_matches_pinned_digests() {
    let a = int_matrix(80, 4, 701);
    let b = int_matrix(80, 5, 702);
    let mask = int_matrix(80, 7, 703);
    let ring = semirings::plus_times::<u64>();
    let rule =
        |i: usize, _: usize, v: u64| Some(v % 1009).filter(|w| !(w + i as u64).is_multiple_of(3));
    let mut moved = Vec::new();
    for ((pr, pc), layers, masked, want) in LEDGERS {
        let grid = ProcGrid::new(pr, pc);
        let algo = if layers > 1 { MxmAlgo::Summa3d { layers } } else { MxmAlgo::Summa2d };
        let da = DistCsrMatrix::from_global(&a, grid);
        let db = DistCsrMatrix::from_global(&b, grid);
        let dm = masked.then(|| DistCsrMatrix::from_global(&mask, grid));
        for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
            for ruled in [false, true] {
                let dctx = ctx_with(grid.locales() * layers, exec);
                dctx.comm.record_history();
                let rule = ruled.then_some(&rule);
                mxm_dist_emit(&da, &db, &ring, dm.as_ref(), rule, algo, &dctx).unwrap();
                let events = dctx.comm.history();
                assert!(!events.is_empty());
                let got = fnv(events.iter().flat_map(|e| {
                    let phase = fnv(e.phase.bytes().map(u64::from));
                    [phase, e.src as u64, e.dst as u64, e.msgs, e.bytes]
                }));
                if got != want {
                    moved.push(format!(
                        "{pr}x{pc} layers={layers} masked={masked} {exec:?} rule={ruled}: \
                         {} events, got {got:#018x}, pinned {want:#018x}",
                        events.len()
                    ));
                }
            }
        }
    }
    assert!(moved.is_empty(), "comm ledgers moved:\n{}", moved.join("\n"));
}

/// Non-proptest smoke: the 3-D variant agrees with 2-D on the integer
/// ring even though its merge tree associates differently — integer
/// addition is associative, so only floating-point results may drift.
#[test]
fn summa3d_matches_2d_on_integer_ring() {
    let a = int_matrix(80, 4, 901);
    let b = int_matrix(80, 4, 902);
    let ring = semirings::plus_times::<u64>();
    let grid = ProcGrid::new(2, 2);
    let d2 = ctx_with(4, LocaleExecutor::Threaded);
    let (c2, _) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
        &DistCsrMatrix::from_global(&a, grid),
        &DistCsrMatrix::from_global(&b, grid),
        &ring,
        None,
        MxmAlgo::Summa2d,
        &d2,
    )
    .unwrap();
    let d3 = ctx_with(8, LocaleExecutor::Threaded);
    let (c3, _) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
        &DistCsrMatrix::from_global(&a, grid),
        &DistCsrMatrix::from_global(&b, grid),
        &ring,
        None,
        MxmAlgo::Summa3d { layers: 2 },
        &d3,
    )
    .unwrap();
    assert_eq!(c2.to_global().unwrap(), c3.to_global().unwrap());
}

/// Bit-level view of a float product, so equality means bit-identity.
fn bits(c: &CsrMatrix<f64>) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (c.rowptr().to_vec(), c.colidx().to_vec(), c.values().iter().map(|v| v.to_bits()).collect())
}

/// Floating point, bit for bit: a 2-D locale folds every output entry in
/// ascending `k` over its whole row panel with the kernel shared memory
/// runs, so an f64 `Summa2d` product *is* the shared product on every grid
/// and executor — masked, unmasked and under an emit rule. The wide 8×8
/// grid chains eight blocks per row panel, on a skewed input whose product
/// is hypersparse on many locales: 26 of the 64 have under a quarter as
/// many estimated flops as output columns. `Summa3d` keeps a tolerance:
/// its layers sum their stages first and a binomial tree adds the layer
/// sums, which associates the additions differently.
#[test]
fn f64_summa2d_is_bit_identical_to_shared() {
    // inexact values and several products per entry: on the unit-valued
    // generator output every sum is an integer and any association agrees
    // (the per-stage partial sums this replaces drifted on 8 of the 9 grids
    // of GRIDS, 52 to 93 of 5 818 values)
    let serial = ExecCtx::serial();
    let frac = |i: usize, j: usize, _: f64| 1.0 / (1 + (i * 31 + j * 17) % 97) as f64;
    let inexact = |m: &CsrMatrix<f64>| map_mat(m, &frac, &serial);
    let cases = [
        (gen::erdos_renyi(90, 12, 611), gen::erdos_renyi(90, 10, 612), 30, &GRIDS[..]),
        (gen::rmat(9, 2, 611), gen::rmat(9, 2, 612), 64, &[(8, 8)][..]),
    ];
    let ring = semirings::plus_times_f64();
    let scale = |i: usize, j: usize, v: f64| Some(v * 0.75 + (i + 2 * j) as f64);
    let rule = |i, j, v| scale(i, j, v).filter(|w| (i + j) % 3 != 0 && *w < 150.0);
    for (a, b, mask_deg, grids) in cases {
        let (a, b) = (inexact(&a), inexact(&b));
        let mask = gen::erdos_renyi(a.nrows(), mask_deg, 613);
        for (mask, rule) in
            [(None, None), (Some(&mask), None), (None, Some(&rule)), (Some(&mask), Some(&rule))]
        {
            let what = format!("n={} masked={} rule={}", a.nrows(), mask.is_some(), rule.is_some());
            let expect: CsrMatrix<f64> = mxm_emit(&a, &b, &ring, mask, rule, &serial).unwrap();
            assert!(expect.nnz() > 0, "{what}");
            for &(pr, pc) in grids {
                let grid = ProcGrid::new(pr, pc);
                let p = grid.locales();
                let da = DistCsrMatrix::from_global(&a, grid);
                let db = DistCsrMatrix::from_global(&b, grid);
                let dm = mask.map(|m| DistCsrMatrix::from_global(m, grid));
                let run = |algo: MxmAlgo, dctx: &DistCtx| {
                    let (c, _) =
                        mxm_dist_emit(&da, &db, &ring, dm.as_ref(), rule, algo, dctx).unwrap();
                    c.to_global().unwrap()
                };
                for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
                    let got = run(MxmAlgo::Summa2d, &ctx_with(p, exec));
                    assert_eq!(bits(&got), bits(&expect), "grid {pr}x{pc} {exec:?} {what}");
                }
                let layered =
                    run(MxmAlgo::Summa3d { layers: 2 }, &ctx_with(2 * p, LocaleExecutor::Threaded));
                assert_eq!(layered.rowptr(), expect.rowptr(), "grid {pr}x{pc} 3-D {what}: pattern");
                assert_eq!(layered.colidx(), expect.colidx(), "grid {pr}x{pc} 3-D {what}: pattern");
                for (x, y) in layered.values().iter().zip(expect.values()) {
                    assert!(
                        (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                        "grid {pr}x{pc} 3-D {what}: {x} vs {y}"
                    );
                }
            }
        }
    }
}
