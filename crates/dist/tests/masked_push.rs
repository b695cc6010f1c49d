//! The distributed push masks at the sender: a locale copies the mask
//! bits over its column range before it multiplies, so a disallowed
//! column is never claimed, sorted or sent. This suite holds that design
//! to the two things it promises:
//!
//! * **results** — the masked distributed push is bit-equal to the shared
//!   masked kernel: first-visitor and semiring (min-plus, and plus-times
//!   over integer-valued `f64`, whose sums are exact in any order), plain
//!   and complemented masks (betweenness uses both), k = 1 and the backend
//!   trait's batched pushes at k = 3, under `Fine` and `Bulk`, on grids
//!   1×1, 2×2, 2×3, 3×2 and 4×1 — including n < locales — under both
//!   executors;
//! * **the comm ledger** — every scatter byte a locale sends is a claim
//!   on an *allowed* column its block reaches (so none targets a masked
//!   one), and the mask gather is one message per remote owner of the
//!   column range, carrying one byte per bit of each nonempty slice's
//!   mask — none at all from a locale whose frontier slice is empty.

use gblas_core::algebra::semirings;
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::backend::{GblasBackend, MaskSpec};
use gblas_core::container::{CsrMatrix, DenseVec, SparseVec};
use gblas_core::gen;
use gblas_core::mask::VecMask;
use gblas_core::ops::spmspv::{spmspv_first_visitor, spmspv_semiring_masked, SpMSpVOpts};
use gblas_core::par::ExecCtx;
use gblas_dist::comm::{CommEvent, CommKind};
use gblas_dist::grid::BlockDist;
use gblas_dist::ops::spmspv::{
    spmspv_dist_semiring_with, spmspv_dist_with, CommStrategy, DistMask, PHASE_GATHER,
    PHASE_SCATTER,
};
use gblas_dist::{
    DistBackend, DistCsrMatrix, DistCtx, DistDenseVec, DistSparseVec, LocaleExecutor, ProcGrid,
};
use gblas_sim::MachineConfig;

const GRIDS: [(usize, usize); 5] = [(1, 1), (2, 2), (2, 3), (3, 2), (4, 1)];
const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];
const STRATEGIES: [CommStrategy; 2] = [CommStrategy::Fine, CommStrategy::Bulk];
const USIZE: u64 = std::mem::size_of::<usize>() as u64;

fn ctx(grid: ProcGrid, exec: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    d.set_executor(exec);
    d.comm.record_history();
    d
}

/// One input: a matrix with integer-valued weights (plus-times sums are
/// exact in any association), a frontier, and a mask bitmap. `n = 3`
/// puts fewer columns than locales on every grid but 1×1.
struct Case {
    a: CsrMatrix<f64>,
    x: SparseVec<f64>,
    bits: DenseVec<bool>,
}

fn cases() -> Vec<Case> {
    [(97usize, 6usize, 11usize, 301u64), (3, 2, 2, 302)]
        .into_iter()
        .map(|(n, d, nnz, seed)| {
            let a = gen::erdos_renyi(n, d, seed);
            let weights = a.values().iter().map(|v| (v * 8.0).floor() + 1.0).collect();
            let x = gen::random_sparse_vec(n, nnz, seed + 1);
            let xv = (0..x.nnz()).map(|i| (i % 4) as f64 + 1.0).collect();
            Case {
                a: a.with_values(weights),
                x: SparseVec::from_sorted(n, x.indices().to_vec(), xv).unwrap(),
                bits: DenseVec::from_fn(n, |i| i % 3 == 1),
            }
        })
        .collect()
}

fn shared_mask(bits: &DenseVec<bool>, complement: bool) -> VecMask<'_> {
    let m = VecMask::dense(bits);
    if complement {
        m.complement()
    } else {
        m
    }
}

fn dist_mask(bits: &DistDenseVec<bool>, complement: bool) -> DistMask<'_> {
    if complement {
        DistMask::complement(bits)
    } else {
        DistMask::new(bits)
    }
}

/// `(indices, value bits)`: what bit-equality compares.
fn enc(v: &SparseVec<f64>) -> (Vec<usize>, Vec<u64>) {
    (v.indices().to_vec(), v.values().iter().map(|x| x.to_bits()).collect())
}

/// Per sender locale and remote owner: how many claims the sender's block
/// makes on *allowed* columns for the frontier `x` — what its scatter
/// must carry, and all it may carry.
fn expected_claims(
    a: &CsrMatrix<f64>,
    da: &DistCsrMatrix<f64>,
    x: &SparseVec<f64>,
    allows: impl Fn(usize) -> bool,
) -> Vec<Vec<u64>> {
    let p = da.grid().locales();
    let out = BlockDist::new(a.ncols(), p);
    (0..p)
        .map(|l| {
            let (rows, cols) = (da.row_range(l), da.col_range(l));
            let mut reached = vec![false; a.ncols()];
            for &i in x.indices().iter().filter(|i| rows.contains(i)) {
                for &j in a.row(i).0.iter().filter(|j| cols.contains(j) && allows(**j)) {
                    reached[j] = true;
                }
            }
            let mut per_owner = vec![0u64; p];
            for j in (0..a.ncols()).filter(|&j| reached[j]) {
                per_owner[out.owner(j)] += 1;
            }
            per_owner
        })
        .collect()
}

/// The scatter bytes of `history`, per `(sender, owner)`.
fn scatter_bytes(history: &[CommEvent], p: usize) -> Vec<Vec<u64>> {
    let mut bytes = vec![vec![0u64; p]; p];
    for e in history.iter().filter(|e| e.phase == PHASE_SCATTER) {
        bytes[e.src][e.dst] += e.bytes;
    }
    bytes
}

/// The gather events a masked run logs beyond its unmasked twin — its
/// mask messages (the frontier gather is the same in both runs).
fn mask_messages(masked: &[CommEvent], unmasked: &[CommEvent]) -> Vec<(usize, usize, u64)> {
    let key = |e: &CommEvent| (e.src, e.dst, e.kind, e.msgs, e.bytes);
    let mut base: Vec<_> = unmasked.iter().filter(|e| e.phase == PHASE_GATHER).map(key).collect();
    let mut extra = Vec::new();
    for e in masked.iter().filter(|e| e.phase == PHASE_GATHER) {
        match base.iter().position(|b| *b == key(e)) {
            Some(i) => {
                base.swap_remove(i);
            }
            None => {
                assert_eq!(e.kind, CommKind::Bulk, "mask gathers are bulk");
                assert_eq!(e.msgs, 1, "one message per remote owner");
                extra.push((e.src, e.dst, e.bytes));
            }
        }
    }
    assert!(base.is_empty(), "the masked run dropped frontier-gather events: {base:?}");
    extra.sort_unstable();
    extra
}

/// What the mask gather must log: per locale with `fetched > 0` sources
/// whose slice is nonempty, one message per remote owner of its column
/// range, `fetched` bytes per column of the window.
fn expected_mask_messages(
    da: &DistCsrMatrix<f64>,
    fetched: impl Fn(usize) -> u64,
) -> Vec<(usize, usize, u64)> {
    let p = da.grid().locales();
    let out = BlockDist::new(da.ncols(), p);
    let mut want = Vec::new();
    for l in (0..p).filter(|&l| fetched(l) > 0) {
        let cols = da.col_range(l);
        for o in (0..p).filter(|&o| o != l) {
            let r = out.range(o);
            let (lo, hi) = (r.start.max(cols.start), r.end.min(cols.end));
            if lo < hi {
                want.push((l, o, fetched(l) * (hi - lo) as u64));
            }
        }
    }
    want.sort_unstable();
    want
}

/// Frontier entries of `x` in locale `l`'s row range.
fn slice_nnz(da: &DistCsrMatrix<f64>, x: &SparseVec<f64>, l: usize) -> u64 {
    x.indices().iter().filter(|i| da.row_range(l).contains(i)).count() as u64
}

/// Only the frontier entries in grid row 0's row range: the other grid
/// rows' locales have empty slices and must fetch no mask.
fn first_row_only(da: &DistCsrMatrix<f64>, x: &SparseVec<f64>) -> SparseVec<f64> {
    let rows = da.row_range(0);
    let (indices, values) =
        x.iter().filter(|(i, _)| rows.contains(i)).map(|(i, &v)| (i, v)).unzip();
    SparseVec::from_sorted(x.capacity(), indices, values).unwrap()
}

fn check_semiring<AddM, MulOp>(case: &Case, ring: &Semiring<AddM, MulOp>, name: &str)
where
    AddM: Monoid<f64>,
    MulOp: BinaryOp<f64, f64, f64>,
{
    let serial = ExecCtx::serial();
    let opts = SpMSpVOpts::default();
    let claim_bytes = 2 * USIZE; // (offset, f64)
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&case.a, grid);
        let dbits = DistDenseVec::from_global(&case.bits, p);
        for x in [case.x.clone(), first_row_only(&da, &case.x)] {
            let dx = DistSparseVec::from_global(&x, p);
            for complement in [false, true] {
                let sm = shared_mask(&case.bits, complement);
                let want =
                    spmspv_semiring_masked(&case.a, &x, ring, Some(&sm), opts, &serial).unwrap();
                let claims = expected_claims(&case.a, &da, &x, |j| case.bits[j] != complement);
                for (exec, strategy) in EXECUTORS.iter().flat_map(|&e| STRATEGIES.map(|s| (e, s))) {
                    let what = format!("{name} {pr}x{pc} {exec:?} {strategy:?} comp={complement}");
                    let dm = Some(dist_mask(&dbits, complement));
                    let masked = ctx(grid, exec);
                    let (y, _) =
                        spmspv_dist_semiring_with(&da, &dx, ring, dm, strategy, opts, &masked)
                            .unwrap();
                    assert_eq!(enc(&y.to_global()), enc(&want), "{what}");
                    let unmasked = ctx(grid, exec);
                    spmspv_dist_semiring_with(&da, &dx, ring, None, strategy, opts, &unmasked)
                        .unwrap();
                    let history = masked.comm.history();
                    check_scatter(&history, &claims, claim_bytes, &what);
                    let got = mask_messages(&history, &unmasked.comm.history());
                    let fetched = |l| u64::from(slice_nnz(&da, &x, l) > 0);
                    assert_eq!(got, expected_mask_messages(&da, fetched), "{what}");
                }
            }
        }
    }
}

/// Every `(sender, remote owner)` pair's scatter bytes are exactly its
/// allowed claims.
fn check_scatter(history: &[CommEvent], claims: &[Vec<u64>], claim_bytes: u64, what: &str) {
    let p = claims.len();
    let got = scatter_bytes(history, p);
    for l in 0..p {
        for o in (0..p).filter(|&o| o != l) {
            assert_eq!(got[l][o], claims[l][o] * claim_bytes, "{what}: scatter {l} -> {o}");
        }
    }
}

#[test]
fn masked_semiring_push_is_bit_equal_to_the_shared_masked_kernel() {
    for case in cases() {
        check_semiring(&case, &semirings::min_plus(), "min_plus");
        check_semiring(&case, &semirings::plus_times_f64(), "plus_times");
    }
}

#[test]
fn masked_first_visitor_push_is_bit_equal_to_the_shared_masked_kernel() {
    let serial = ExecCtx::serial();
    let opts = SpMSpVOpts::default();
    let claim_bytes = 2 * USIZE; // (offset, parent)
    for case in cases() {
        for (pr, pc) in GRIDS {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&case.a, grid);
            let dbits = DistDenseVec::from_global(&case.bits, p);
            for x in [case.x.clone(), first_row_only(&da, &case.x)] {
                let dx = DistSparseVec::from_global(&x, p);
                for complement in [false, true] {
                    let sm = shared_mask(&case.bits, complement);
                    let want = spmspv_first_visitor(&case.a, &x, Some(&sm), opts, &serial).unwrap();
                    let allows = |j: usize| case.bits[j] != complement;
                    let claims = expected_claims(&case.a, &da, &x, allows);
                    for exec in EXECUTORS {
                        for strategy in STRATEGIES {
                            let what = format!("{pr}x{pc} {exec:?} {strategy:?} comp={complement}");
                            let dm = Some(dist_mask(&dbits, complement));
                            let masked = ctx(grid, exec);
                            let (y, _) =
                                spmspv_dist_with(&da, &dx, dm, strategy, opts, &masked).unwrap();
                            assert_eq!(y.to_global(), want, "{what}");
                            let unmasked = ctx(grid, exec);
                            spmspv_dist_with(&da, &dx, None, strategy, opts, &unmasked).unwrap();
                            let history = masked.comm.history();
                            check_scatter(&history, &claims, claim_bytes, &what);
                            let got = mask_messages(&history, &unmasked.comm.history());
                            let fetched = |l| u64::from(slice_nnz(&da, &x, l) > 0);
                            assert_eq!(got, expected_mask_messages(&da, fetched), "{what}");
                        }
                    }
                }
            }
        }
    }
}

/// Three sources' frontiers; source 1 only holds rows of grid row 0, so
/// on every grid with more than one grid row some locale fetches fewer
/// bitmaps than the batch holds.
fn batch(case: &Case, da: &DistCsrMatrix<f64>) -> Vec<SparseVec<f64>> {
    let n = case.a.nrows();
    let shifted = |by: usize| {
        let mut pairs: Vec<_> = case.x.iter().map(|(i, &v)| ((i + by) % n, v)).collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let (indices, values) = pairs.into_iter().unzip();
        SparseVec::from_sorted(n, indices, values).unwrap()
    };
    vec![case.x.clone(), first_row_only(da, &shifted(1)), shifted(2)]
}

/// Block-distribute `xs` over `p` locales, each entry valued by `value`.
fn dist_batch<T>(
    xs: &[SparseVec<f64>],
    value: impl Fn(usize, f64) -> T,
    p: usize,
) -> Vec<DistSparseVec<T>>
where
    T: Copy,
{
    let valued = |x: &SparseVec<f64>| {
        let vals = x.iter().map(|(i, &v)| value(i, v)).collect();
        SparseVec::from_sorted(x.capacity(), x.indices().to_vec(), vals).unwrap()
    };
    xs.iter().map(|x| DistSparseVec::from_global(&valued(x), p)).collect()
}

#[test]
fn batched_masked_push_is_bit_equal_to_the_shared_masked_kernel_per_source() {
    let serial = ExecCtx::serial();
    let opts = SpMSpVOpts::default();
    let claim_bytes = 2 * USIZE; // (offset, parent)
    for case in cases() {
        let n = case.a.nrows();
        // per-source visited masks (complemented, as BFS passes them)
        let visited: Vec<DenseVec<bool>> =
            (0..3).map(|s| DenseVec::from_fn(n, |i| (i + s) % 3 == 0)).collect();
        for (pr, pc) in GRIDS {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&case.a, grid);
            let xs = batch(&case, &da);
            let (f, fv) = (dist_batch(&xs, |i, _| i, p), dist_batch(&xs, |_, v| v, p));
            let dvisited: Vec<DistDenseVec<bool>> =
                visited.iter().map(|v| DistDenseVec::from_global(v, p)).collect();
            let masks: Vec<_> = dvisited.iter().map(MaskSpec::complement).collect();
            let mut claims = vec![vec![0u64; p]; p];
            for (x, v) in xs.iter().zip(&visited) {
                for (l, row) in expected_claims(&case.a, &da, x, |j| !v[j]).iter().enumerate() {
                    claims[l].iter_mut().zip(row).for_each(|(c, r)| *c += r);
                }
            }
            for (exec, strategy) in EXECUTORS.iter().flat_map(|&e| STRATEGIES.map(|s| (e, s))) {
                let what = format!("batch {pr}x{pc} {exec:?} {strategy:?}");
                let masked = ctx(grid, exec);
                let backend = DistBackend::with_strategy(&masked, strategy);
                let out = backend.spmspv_first_visitor(&da, &f, Some(&masks), opts).unwrap();
                for (s, x) in xs.iter().enumerate() {
                    let sm = shared_mask(&visited[s], true);
                    let want = spmspv_first_visitor(&case.a, x, Some(&sm), opts, &serial).unwrap();
                    assert_eq!(out[s].to_global(), want, "{what} source {s}");
                }
                // the unmasked twin — the same batch's semiring push —
                // logs the same frontier gather and no mask gather
                let unmasked = ctx(grid, exec);
                let ring = semirings::min_plus();
                let twin = DistBackend::with_strategy(&unmasked, strategy);
                let _: Vec<DistSparseVec<f64>> =
                    twin.spmspv_semiring(&da, &fv, &ring, None, opts).unwrap();
                let history = masked.comm.history();
                check_scatter(&history, &claims, claim_bytes, &what);
                let got = mask_messages(&history, &unmasked.comm.history());
                let fetched = |l| xs.iter().filter(|x| slice_nnz(&da, x, l) > 0).count() as u64;
                assert_eq!(got, expected_mask_messages(&da, fetched), "{what}");
            }
        }
    }
}

#[test]
fn batched_semiring_push_is_bit_equal_to_the_shared_kernel_per_source() {
    // An unmasked batched semiring push: its rows must still be the
    // shared kernel's, bit for bit, through the same engine.
    let serial = ExecCtx::serial();
    let opts = SpMSpVOpts::default();
    let ring = semirings::plus_times_f64();
    for case in cases() {
        for (pr, pc) in GRIDS {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&case.a, grid);
            let xs = batch(&case, &da);
            let f = dist_batch(&xs, |_, v| v, p);
            for (exec, strategy) in EXECUTORS.iter().flat_map(|&e| STRATEGIES.map(|s| (e, s))) {
                let dctx = ctx(grid, exec);
                let backend = DistBackend::with_strategy(&dctx, strategy);
                let out: Vec<DistSparseVec<f64>> =
                    backend.spmspv_semiring(&da, &f, &ring, None, opts).unwrap();
                for (s, x) in xs.iter().enumerate() {
                    let want =
                        spmspv_semiring_masked(&case.a, x, &ring, None, opts, &serial).unwrap();
                    let what = format!("{pr}x{pc} {exec:?} {strategy:?} {s}");
                    assert_eq!(enc(&out[s].to_global()), enc(&want), "{what}");
                }
            }
        }
    }
}
