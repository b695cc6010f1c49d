//! `SpMSpV`: sparse matrix × sparse vector, `y ← x A` (§III-D, Listing 7).
//!
//! "The algorithm iterates over the nonzeros of the input vector x and
//! fetches rows A\[i, :\] for which x\[i\] ≠ 0. The nonzeros in those rows
//! are merged using the SPA." [`MergeStrategy`] picks the merge, each in
//! three instrumented phases:
//!
//! * **Bucketed** (the default) — the paper's reference \[9\], the
//!   work-efficient SpMSpV it cites as the fix for its dominant sort
//!   (CombBLAS 2.0's SpMSpV-bucket), on `T = ctx.threads()` tasks and `T`
//!   column ranges of `⌈ncols / T⌉` columns rounded up to whole words:
//!   **`bucket`** — each task walks an edge-balanced chunk of the frontier
//!   and appends every allowed `(column, value)` to its own buffer for the
//!   column's range; **`spa`** — range `b`'s task drains every buffer for
//!   `b` in task order, which is frontier order, into its private window
//!   of a `RangeSpa`; **`output`** — each range emits its occupied columns
//!   by scanning its occupancy words, and the ranges concatenate sorted.
//!   No atomic, no sort, no serial loop.
//! * **SortBased** — Listing 7 as written, behind Figs 7–9 and the
//!   differential oracle: **`spa`** through an [`AtomicSpa`] (first
//!   visitor) or a serial `DenseSpa` (semiring), **`sort`** of the
//!   collected indices ("sorting is the most expensive step"; merge or
//!   radix sort), **`output`**.
//!
//! Variants:
//! * [`spmspv_first_visitor`] — the stored value is a visiting row id (the
//!   BFS parent): the smallest, the row Listing 7's serial schedule visits
//!   first, so output and work profile are the same on any number of real
//!   threads. Bucketed, a task appends a column only on first sight (its
//!   rows ascend: that claim is its minimum) and the drain keeps the first
//!   arrival.
//! * [`spmspv_semiring`] — `y[j] = ⊕_i x[i] ⊗ A[i,j]`, each column's
//!   products accumulated in ascending row order under both merges, so
//!   they agree bit for bit.
//! * [`spmspv_sort_based`] — collect all products, sort by column,
//!   segmented-reduce; used by the ablation bench.

use crate::algebra::{BinaryOp, Monoid, Semiring};
use crate::container::{CsrMatrix, SparseVec};
use crate::error::{check_dims, Result};
use crate::mask::VecMask;
use crate::par::{split_by_work, Counters, ExecCtx};
use crate::sort::{parallel_merge_sort, sort_indices, SortAlgo};
use crate::spa::AtomicSpa;
use parking_lot::Mutex;

/// Phase: SPA merge.
pub const PHASE_SPA: &str = "spa";
/// Phase: index sort.
pub const PHASE_SORT: &str = "sort";
/// Phase: the bucketed merge's appends (its replacement for `sort`).
pub const PHASE_BUCKET: &str = "bucket";
/// Phase: output construction.
pub const PHASE_OUTPUT: &str = "output";

/// How the selected rows of `A` become the sorted output. The caller's
/// choice is the merge that runs, and the op span's `merge` attribute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Listing 7 as written: a SPA, then a global comparison sort of the
    /// collected indices — the step Fig 7 shows dominating. The path
    /// behind Figs 7–9 and the differential oracle.
    SortBased,
    /// The paper's reference \[9\] and the default: private column ranges,
    /// so no atomics and no sort (`PHASE_BUCKET` holds the appends).
    #[default]
    Bucketed,
}

impl MergeStrategy {
    /// Stable lowercase name (trace attributes, CLI flags, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            MergeStrategy::SortBased => "sort",
            MergeStrategy::Bucketed => "bucket",
        }
    }

    /// Parse a CLI spelling (`sort` | `bucket`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sort" | "sorted" | "sort-based" => Some(MergeStrategy::SortBased),
            "bucket" | "bucketed" => Some(MergeStrategy::Bucketed),
            _ => None,
        }
    }
}

/// Options for the SpMSpV kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpMSpVOpts {
    /// Sorting algorithm for the collected indices (sort-based merge only).
    pub sort: SortAlgo,
    /// How the collected indices are merged into sorted order.
    pub merge: MergeStrategy,
}

impl SpMSpVOpts {
    /// Default options with the given merge strategy.
    pub fn with_merge(merge: MergeStrategy) -> Self {
        SpMSpVOpts { merge, ..Default::default() }
    }
}

/// The bucketed merge of the module doc for both claim rules: task `t`
/// appends `(col, product(p, A[xi[p], col]))` for the entries `p` of its
/// chunk (with `first_only`, on its first sight of `col` only); a range
/// keeps a column's first arrival and `combine`s later ones into it.
#[allow(clippy::too_many_arguments)]
fn bucketed<B: Sync, W: Copy + Send + Sync + 'static>(
    a: &CsrMatrix<B>,
    xi: &[usize],
    mask: Option<&VecMask<'_>>,
    first_only: bool,
    product: impl Fn(usize, &B) -> W + Sync,
    combine: impl Fn(W, W) -> W + Sync,
    fill: W,
    ctx: &ExecCtx,
) -> Result<SparseVec<W>> {
    let ncols = a.ncols();
    let chunks = split_by_work(xi.len(), ctx.threads(), |p| a.row_nnz(xi[p]) + 1);
    let width = ncols.div_ceil(ctx.threads()).next_multiple_of(64).max(64);
    let (ntasks, nranges) = (chunks.len(), ncols.div_ceil(width).max(1));
    let mut spa = ctx.ws_range_spa(ncols, ntasks, ntasks * nranges, fill);
    let spa = &mut *spa;
    // Step 1: append. A task's buffers and bitmap are its own.
    let own = spa.bufs.chunks_mut(nranges).zip(spa.seen.chunks_mut(ncols.div_ceil(64).max(1)));
    let own: Vec<_> = own.take(ntasks).map(Mutex::new).collect();
    ctx.for_each_task(PHASE_BUCKET, ntasks, |t, c| {
        let (bufs, seen) = &mut *own[t].lock();
        for p in chunks[t].clone() {
            let (cols, vals) = a.row(xi[p]);
            c.flops += cols.len() as u64;
            for (&col, av) in cols.iter().zip(vals) {
                if mask.is_some_and(|m| !m.allows(col, c)) {
                    continue;
                }
                if first_only {
                    c.rand_access += 1;
                    let (word, bit) = (&mut seen[col / 64], 1u64 << (col % 64));
                    if *word & bit != 0 {
                        continue;
                    }
                    *word |= bit;
                }
                bufs[col / width].push((col, product(p, av)));
            }
        }
        let appended = bufs.iter().flatten();
        if first_only {
            appended.clone().for_each(|&(col, _)| seen[col / 64] = 0);
        }
        let appended = appended.count() as u64;
        c.elems += chunks[t].len() as u64 + appended;
        c.bytes_moved += appended * std::mem::size_of::<(usize, W)>() as u64;
    });
    drop(own);
    // Steps 2 and 3: drain, then emit. A range's window is its own.
    let windows = spa.values.chunks_mut(width).zip(spa.occupied.chunks_mut(width / 64));
    let windows: Vec<_> = windows.take(nranges).map(Mutex::new).collect();
    let bufs = &spa.bufs;
    let emitted = ctx.for_each_task(PHASE_SPA, nranges, |b, c| {
        let (values, occupied) = &mut *windows[b].lock();
        let start = b * width;
        let arrivals = (0..ntasks).flat_map(|t| &bufs[t * nranges + b]);
        for &(col, v) in arrivals.clone() {
            let (off, bit) = (col - start, 1u64 << (col % 64));
            let word = &mut occupied[off / 64];
            values[off] = if *word & bit == 0 { v } else { combine(values[off], v) };
            *word |= bit;
        }
        let drained = arrivals.count();
        c.spa_touches += drained as u64;
        let scanned = if drained == 0 { 0 } else { width.min(ncols - start).div_ceil(64) };
        let (mut inds, mut vals) = (ctx.ws_vec::<usize>(), ctx.ws_vec::<W>());
        for (w, word) in occupied[..scanned].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let off = w * 64 + bits.trailing_zeros() as usize;
                inds.push(start + off);
                vals.push(values[off]);
                bits &= bits - 1;
            }
        }
        (inds, vals, scanned as u64)
    });
    spa.dirty = false;
    let nnz = emitted.iter().map(|(inds, _, _)| inds.len()).sum();
    ctx.record(PHASE_OUTPUT, |c| {
        c.elems += emitted.iter().map(|(_, _, scanned)| scanned).sum::<u64>();
        c.spa_touches += nnz as u64;
    });
    let (mut inds, mut vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for (i, v, _) in &emitted {
        inds.extend_from_slice(i);
        vals.extend_from_slice(v);
    }
    SparseVec::from_sorted(ncols, inds, vals)
}

/// `Err` when `mask` has another length than the output: past its end a
/// complemented mask would allow every column.
fn check_mask_len(mask: Option<&VecMask<'_>>, ncols: usize) -> Result<()> {
    mask.map_or(Ok(()), |m| check_dims("mask length vs matrix columns", ncols, m.size()))
}

/// Listing 7: parallel first-visitor SpMSpV. The output stores, for every
/// reached column, the smallest id among the frontier rows that reach it
/// ("keep row index as value") — the row the listing's serial schedule
/// visits first, returned here under any real thread count by either
/// merge (sort-based, [`AtomicSpa::claim`] resolves by `min`, not by
/// arrival; bucketed, the first arrival *is* the minimum).
///
/// `x`'s values are ignored; its *structure* selects the rows of `a`.
/// An optional `mask` restricts which output columns may be claimed
/// (BFS passes "not yet visited"); the mask must have `a.ncols()`
/// entries. A matrix with more rows than a SPA slot can name is an error.
pub fn spmspv_first_visitor<T: Send + Sync, X: Send + Sync>(
    a: &CsrMatrix<T>,
    x: &SparseVec<X>,
    mask: Option<&VecMask<'_>>,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<SparseVec<usize>> {
    check_dims("x capacity vs matrix rows", a.nrows(), x.capacity())?;
    check_mask_len(mask, a.ncols())?;
    AtomicSpa::check_values(a.nrows())?;
    let _op = ctx.trace_op_attrs(
        "spmspv_first_visitor",
        x.nnz() as u64,
        &[("nrows", a.nrows()), ("ncols", a.ncols())],
        &[("merge", opts.merge.name())],
    );
    let ncols = a.ncols();
    let xi = x.indices();
    if opts.merge == MergeStrategy::Bucketed {
        return bucketed(a, xi, mask, true, |p, _| xi[p], |first, _| first, 0, ctx);
    }
    // Step 1: SPA (Listing 7 lines 12–29) — checked out of the context's
    // workspace pool: on every BFS level after the first this is an O(1)
    // generation bump instead of an O(ncols) allocation + zero-fill. The
    // frontier is dealt by edges, not by vertices: a skewed graph keeps its
    // hubs at a few ids, and a split by count hands one task most of them.
    let chunks = split_by_work(x.nnz(), ctx.threads(), |p| a.row_nnz(xi[p]) + 1);
    let spa = ctx.ws_atomic_spa(ncols, ctx.threads());
    ctx.for_each_task(PHASE_SPA, chunks.len(), |t, c| {
        let mut claimed = spa.list(t);
        for &rid in &xi[chunks[t].clone()] {
            let (cols, _) = a.row(rid);
            c.flops += cols.len() as u64;
            for &colid in cols {
                if let Some(m) = mask {
                    if !m.allows(colid, c) {
                        continue;
                    }
                }
                spa.claim(colid, rid, &mut claimed, c);
            }
        }
        c.elems += chunks[t].len() as u64;
    });
    // The lists merge by owner: a column stays with the task whose rows
    // hold its final (minimum) claimant — the serial schedule's `nzinds`.
    let rows = |t: usize| xi[chunks[t].start]..=xi[chunks[t].end - 1];
    let mut collected = Vec::new();
    ctx.record(PHASE_SPA, |c| collected = spa.collected(rows, c));
    // Step 2: remove unused entries and order them (lines 30–32).
    let mut nzinds = collected;
    sort_indices(&mut nzinds, opts.sort, ctx, PHASE_SORT);
    // Step 3: populate the output vector (lines 33–39).
    let value_chunks = ctx.parallel_for(PHASE_OUTPUT, nzinds.len(), |r, c| {
        let mut vals = ctx.ws_vec::<usize>();
        vals.extend(nzinds[r.clone()].iter().map(|&si| spa.value(si)));
        c.spa_touches += r.len() as u64;
        c.elems += r.len() as u64;
        vals
    });
    let mut values = Vec::with_capacity(nzinds.len());
    for v in value_chunks {
        values.extend_from_slice(&v);
    }
    SparseVec::from_sorted(ncols, nzinds, values)
}

/// General semiring SpMSpV: `y[j] = ⊕_{i : x[i] stored} x[i] ⊗ A[i,j]`,
/// each column's products accumulated in ascending row order under either
/// merge, so the result is deterministic and the same bits under both.
pub fn spmspv_semiring<A, B, C, AddM, MulOp>(
    a: &CsrMatrix<B>,
    x: &SparseVec<A>,
    ring: &Semiring<AddM, MulOp>,
    ctx: &ExecCtx,
) -> Result<SparseVec<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    spmspv_semiring_masked(a, x, ring, None, SpMSpVOpts::default(), ctx)
}

/// [`spmspv_semiring`] with a mask over output columns and explicit
/// options.
pub fn spmspv_semiring_masked<A, B, C, AddM, MulOp>(
    a: &CsrMatrix<B>,
    x: &SparseVec<A>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&VecMask<'_>>,
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<SparseVec<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("x capacity vs matrix rows", a.nrows(), x.capacity())?;
    check_mask_len(mask, a.ncols())?;
    let _op = ctx.trace_op_attrs(
        "spmspv_semiring",
        x.nnz() as u64,
        &[("nrows", a.nrows()), ("ncols", a.ncols())],
        &[("merge", opts.merge.name())],
    );
    if opts.merge == MergeStrategy::Bucketed {
        let (xi, xv) = (x.indices(), x.values());
        let multiply = |p, &av: &B| ring.multiply(xv[p], av);
        let add = |acc, v| ring.accumulate(acc, v);
        return bucketed(a, xi, mask, false, multiply, add, ring.zero(), ctx);
    }
    let ncols = a.ncols();
    let mut spa = ctx.ws_dense_spa(ncols, ring.zero::<C>());
    let mut c = Counters::default();
    for (rid, &xv) in x.iter() {
        let (cols, vals) = a.row(rid);
        c.flops += cols.len() as u64;
        for (&colid, &av) in cols.iter().zip(vals.iter()) {
            if let Some(m) = mask {
                if !m.allows(colid, &mut c) {
                    continue;
                }
            }
            spa.accumulate(colid, ring.multiply(xv, av), &ring.add, &mut c);
        }
    }
    c.elems += x.nnz() as u64;
    ctx.record(PHASE_SPA, |pc| pc.merge(&c));

    let mut nzinds = spa.nzinds().to_vec();
    sort_indices(&mut nzinds, opts.sort, ctx, PHASE_SORT);

    let mut out_c = Counters::default();
    let values: Vec<C> = nzinds
        .iter()
        .map(|&i| {
            out_c.spa_touches += 1;
            spa.get(i).expect("collected index is occupied")
        })
        .collect();
    out_c.elems += nzinds.len() as u64;
    ctx.record(PHASE_OUTPUT, |pc| pc.merge(&out_c));
    SparseVec::from_sorted(ncols, nzinds, values)
}

/// Sort-based SpMSpV: emit every product `(col, x[i] ⊗ A[i,j])`, sort the
/// pairs by column, then reduce equal columns with the add monoid. Trades
/// SPA random access for a bigger sort — the ablation bench compares it
/// against the SPA algorithm.
pub fn spmspv_sort_based<A, B, C, AddM, MulOp>(
    a: &CsrMatrix<B>,
    x: &SparseVec<A>,
    ring: &Semiring<AddM, MulOp>,
    ctx: &ExecCtx,
) -> Result<SparseVec<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("x capacity vs matrix rows", a.nrows(), x.capacity())?;
    let _op = ctx.trace_op(
        "spmspv_sort_based",
        x.nnz() as u64,
        &[("nrows", a.nrows()), ("ncols", a.ncols())],
    );
    let ncols = a.ncols();
    // Emit products.
    let mut keyed: Vec<(usize, usize)> = Vec::new(); // (col, position)
    let mut products: Vec<C> = Vec::new();
    let mut c = crate::par::Counters::default();
    for (rid, &xv) in x.iter() {
        let (cols, vals) = a.row(rid);
        c.flops += cols.len() as u64;
        for (&colid, &av) in cols.iter().zip(vals.iter()) {
            keyed.push((colid, products.len()));
            products.push(ring.multiply(xv, av));
        }
    }
    c.elems += x.nnz() as u64;
    ctx.record(PHASE_SPA, |pc| pc.merge(&c));
    // Sort pairs by column (stable by construction of the secondary key).
    parallel_merge_sort(&mut keyed, ctx, PHASE_SORT);
    // Segmented reduce.
    let mut out_i: Vec<usize> = Vec::new();
    let mut out_v: Vec<C> = Vec::new();
    let mut oc = crate::par::Counters::default();
    for &(col, pos) in &keyed {
        oc.elems += 1;
        if out_i.last() == Some(&col) {
            let last = out_v.last_mut().unwrap();
            *last = ring.accumulate(*last, products[pos]);
            oc.flops += 1;
        } else {
            out_i.push(col);
            out_v.push(products[pos]);
        }
    }
    ctx.record(PHASE_OUTPUT, |pc| pc.merge(&oc));
    SparseVec::from_sorted(ncols, out_i, out_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semirings;
    use crate::container::DenseVec;
    use crate::gen;

    /// Dense reference for y = x A over plus-times.
    fn dense_reference(a: &CsrMatrix<f64>, x: &SparseVec<f64>) -> Vec<f64> {
        let mut y = vec![0.0; a.ncols()];
        for (i, &xv) in x.iter() {
            let (cols, vals) = a.row(i);
            for (&j, &av) in cols.iter().zip(vals) {
                y[j] += xv * av;
            }
        }
        y
    }

    #[test]
    fn semiring_matches_dense_reference() {
        let a = gen::erdos_renyi(500, 6, 11);
        let x = gen::random_sparse_vec(500, 40, 12);
        let ctx = ExecCtx::serial();
        let out = spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
        let reference = dense_reference(&a, &x);
        let dense: Vec<f64> = (0..500).map(|j| out.get(j).copied().unwrap_or(0.0)).collect();
        for j in 0..500 {
            assert!((dense[j] - reference[j]).abs() < 1e-9, "col {j}");
        }
    }

    #[test]
    fn sort_based_agrees_with_spa() {
        let a = gen::erdos_renyi(300, 5, 21);
        let x = gen::random_sparse_vec(300, 30, 22);
        let ctx = ExecCtx::serial();
        let spa = spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
        let srt = spmspv_sort_based(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
        assert_eq!(spa.indices(), srt.indices());
        for (s, t) in spa.values().iter().zip(srt.values()) {
            assert!((s - t).abs() < 1e-9);
        }
    }

    #[test]
    fn first_visitor_structure_matches_semiring_structure() {
        let a = gen::erdos_renyi(400, 8, 31);
        let x = gen::random_sparse_vec(400, 25, 32);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let fv = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).unwrap();
            let sr = spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
            assert_eq!(fv.indices(), sr.indices(), "reached set must agree");
            // every stored value is a legitimate visiting row
            for (col, &rid) in fv.iter() {
                assert!(x.get(rid).is_some(), "value {rid} must be a frontier row");
                assert!(a.get(rid, col).is_some(), "A[{rid},{col}] must exist");
            }
        }
    }

    #[test]
    fn first_visitor_deterministic_when_serial() {
        let a = gen::erdos_renyi(200, 6, 41);
        let x = gen::random_sparse_vec(200, 20, 42);
        let ctx = ExecCtx::serial();
        let y1 = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).unwrap();
        let y2 = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).unwrap();
        assert_eq!(y1, y2);
    }

    /// Frontiers whose edge-balanced split degenerates: a hub first with
    /// more tasks than frontier rows (one row per chunk), and a hub heavier
    /// than several shares of the total in the middle (the chunks it
    /// swallows are empty). Under either merge, output and the whole
    /// profile must be the serial schedule's, and the claiming task count
    /// what a split by rows gives.
    #[test]
    fn hub_frontiers_split_into_empty_chunks_and_change_nothing() {
        let n = 64;
        let mut edges = Vec::new();
        for j in 0..n {
            edges.push((0, j, true)); // row 0 reaches everything
            edges.push((40, j, true)); // so does row 40
        }
        for i in [3usize, 9, 17, 33, 41, 50, 63] {
            edges.push((i, (7 * i) % n, true));
            edges.push((i, (11 * i + 1) % n, true));
        }
        edges.sort_unstable();
        edges.dedup();
        let a = CsrMatrix::from_triplets(n, n, &edges).unwrap();
        let frontier = |rows: &[usize]| {
            SparseVec::from_sorted(n, rows.to_vec(), vec![1u8; rows.len()]).unwrap()
        };
        let cases = [
            (frontier(&[0, 3, 9]), 8),                      // threads > nnz(x)
            (frontier(&[3, 9, 17, 33, 40, 41, 50, 63]), 4), // one row outweighs three shares
            (frontier(&[3, 9, 17, 33, 40, 41, 50, 63]), 8),
        ];
        let merges =
            [(MergeStrategy::SortBased, PHASE_SPA), (MergeStrategy::Bucketed, PHASE_BUCKET)];
        for ((x, threads), (merge, claiming)) in cases.iter().flat_map(|c| merges.map(|m| (c, m))) {
            let (opts, threads) = (SpMSpVOpts::with_merge(merge), *threads);
            let serial = ExecCtx::new(threads, 1);
            let expect = spmspv_first_visitor(&a, x, None, opts, &serial);
            let expect = (expect.unwrap(), serial.take_profile());
            assert_eq!(expect.1.phase(claiming).tasks, threads.min(x.nnz()) as u64);
            // every column's parent is its least frontier in-neighbour
            for (col, &rid) in expect.0.iter() {
                let least = x.indices().iter().find(|&&r| a.get(r, col).is_some());
                assert_eq!(Some(&rid), least, "col {col}");
            }
            for real in [2, 4] {
                let ctx = ExecCtx::new(threads, real);
                for rep in 0..20 {
                    let y = spmspv_first_visitor(&a, x, None, opts, &ctx);
                    let got = (y.unwrap(), ctx.take_profile());
                    assert_eq!(got, expect, "{merge:?} threads={threads} real={real} rep={rep}");
                }
            }
        }
    }

    #[test]
    fn radix_and_merge_sorts_agree() {
        let a = gen::erdos_renyi(400, 8, 51);
        let x = gen::random_sparse_vec(400, 30, 52);
        let ctx = ExecCtx::serial();
        let m = spmspv_first_visitor(
            &a,
            &x,
            None,
            SpMSpVOpts { sort: SortAlgo::Merge, merge: MergeStrategy::SortBased },
            &ctx,
        )
        .unwrap();
        let r = spmspv_first_visitor(
            &a,
            &x,
            None,
            SpMSpVOpts { sort: SortAlgo::Radix, merge: MergeStrategy::SortBased },
            &ctx,
        )
        .unwrap();
        assert_eq!(m, r);
    }

    fn sorted() -> SpMSpVOpts {
        SpMSpVOpts::with_merge(MergeStrategy::SortBased)
    }

    #[test]
    fn bucketed_first_visitor_matches_sorted_and_neither_sorts_nor_claims_atomically() {
        let a = gen::erdos_renyi(400, 8, 53);
        let x = gen::random_sparse_vec(400, 30, 54);
        for threads in [1usize, 4, 16] {
            let ctx_s = ExecCtx::simulated(threads);
            let ctx_b = ExecCtx::simulated(threads);
            let sorted = spmspv_first_visitor(&a, &x, None, sorted(), &ctx_s).unwrap();
            let bucketed = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx_b);
            assert_eq!(sorted, bucketed.unwrap(), "threads={threads}");
            let ps = ctx_s.take_profile();
            let pb = ctx_b.take_profile();
            // both walk the same rows; only the bucketed path dedupes
            assert_eq!(ps.phase(PHASE_SPA).flops, pb.phase(PHASE_BUCKET).flops);
            assert!(pb.phase(PHASE_BUCKET).rand_access > 0, "threads={threads}");
            assert!(pb.phase(PHASE_SORT).is_empty(), "threads={threads}");
            assert_eq!((pb.total().sort_elems, pb.total().atomics), (0, 0), "threads={threads}");
            assert!(ps.phase(PHASE_SORT).sort_elems > 0, "threads={threads}");
        }
    }

    #[test]
    fn bucketed_semiring_matches_sorted_semiring() {
        let a = gen::erdos_renyi(500, 6, 57);
        let x = gen::random_sparse_vec(500, 45, 58);
        let ring = semirings::plus_times_f64();
        let ctx_s = ExecCtx::simulated(8);
        let ctx_b = ExecCtx::simulated(8);
        let sorted = spmspv_semiring_masked(&a, &x, &ring, None, sorted(), &ctx_s).unwrap();
        let bucketed =
            spmspv_semiring_masked(&a, &x, &ring, None, SpMSpVOpts::default(), &ctx_b).unwrap();
        assert_eq!(sorted, bucketed, "the same accumulation order, the same bits");
        assert_eq!(ctx_b.take_profile().total().sort_elems, 0);
    }

    #[test]
    fn bucketed_masked_agrees_with_sorted_masked() {
        let a = gen::erdos_renyi_bool(300, 7, 59);
        let x = gen::random_sparse_vec(300, 25, 60);
        let visited = DenseVec::from_fn(300, |i| i % 3 == 0);
        let not_visited = VecMask::dense(&visited).complement();
        let ctx = ExecCtx::serial();
        let s = spmspv_first_visitor(&a, &x, Some(&not_visited), sorted(), &ctx).unwrap();
        let b = spmspv_first_visitor(&a, &x, Some(&not_visited), SpMSpVOpts::default(), &ctx);
        assert_eq!(s, b.unwrap());
    }

    #[test]
    fn merge_strategy_parses_cli_spellings() {
        assert_eq!(MergeStrategy::parse("sort"), Some(MergeStrategy::SortBased));
        assert_eq!(MergeStrategy::parse("bucket"), Some(MergeStrategy::Bucketed));
        assert_eq!(MergeStrategy::parse("bucketed"), Some(MergeStrategy::Bucketed));
        assert_eq!(MergeStrategy::parse("quantum"), None);
        assert_eq!(MergeStrategy::SortBased.name(), "sort");
        assert_eq!(MergeStrategy::Bucketed.name(), "bucket");
    }

    #[test]
    fn mask_excludes_columns() {
        let a = gen::erdos_renyi_bool(200, 6, 61);
        let x = gen::random_sparse_vec(200, 15, 62);
        let visited = DenseVec::from_fn(200, |i| i % 2 == 0); // even columns visited
        let not_visited = VecMask::dense(&visited).complement();
        let ctx = ExecCtx::serial();
        let y =
            spmspv_first_visitor(&a, &x, Some(&not_visited), SpMSpVOpts::default(), &ctx).unwrap();
        assert!(y.indices().iter().all(|&j| j % 2 == 1), "only odd columns allowed");
    }

    #[test]
    fn phases_are_recorded() {
        let a = gen::erdos_renyi(300, 8, 71);
        let x = gen::random_sparse_vec(300, 50, 72);
        let ctx = ExecCtx::simulated(16);
        let _ = spmspv_first_visitor(&a, &x, None, sorted(), &ctx).unwrap();
        let prof = ctx.take_profile();
        assert!(prof.phase(PHASE_SPA).flops > 0);
        assert!(prof.phase(PHASE_SPA).atomics > 0);
        assert!(prof.phase(PHASE_SORT).sort_elems > 0);
        assert!(prof.phase(PHASE_OUTPUT).spa_touches > 0);
        let _ = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).unwrap();
        let prof = ctx.take_profile();
        assert_eq!(prof.phase_names(), [PHASE_BUCKET, PHASE_SPA, PHASE_OUTPUT]);
        let (append, drain, emit) =
            (prof.phase(PHASE_BUCKET), prof.phase(PHASE_SPA), prof.phase(PHASE_OUTPUT));
        assert!(append.flops > 0 && append.bytes_moved > 0);
        // every append is drained once, and the emit scans whole words only
        assert_eq!(append.elems - x.nnz() as u64, drain.spa_touches);
        assert!(emit.spa_touches > 0 && emit.elems <= 300usize.div_ceil(64) as u64);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = gen::erdos_renyi(10, 2, 81);
        let x = gen::random_sparse_vec(11, 2, 82);
        let ctx = ExecCtx::serial();
        assert!(spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).is_err());
        assert!(spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx).is_err());
    }

    #[test]
    fn empty_frontier_gives_empty_output() {
        let a = gen::erdos_renyi(50, 3, 91);
        let x = SparseVec::<f64>::new(50);
        let ctx = ExecCtx::serial();
        let y = spmspv_first_visitor(&a, &x, None, SpMSpVOpts::default(), &ctx).unwrap();
        assert_eq!(y.nnz(), 0);
        assert_eq!(y.capacity(), 50);
    }

    #[test]
    fn tropical_semiring_relaxes_distances() {
        // Path graph 0 -> 1 -> 2 with weights 2.0 and 3.0.
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let x = SparseVec::from_sorted(3, vec![0], vec![0.0]).unwrap(); // dist 0 at source
        let ctx = ExecCtx::serial();
        let ring = semirings::min_plus();
        let y1 = spmspv_semiring(&a, &x, &ring, &ctx).unwrap();
        assert_eq!(y1.indices(), &[1]);
        assert_eq!(y1.values(), &[2.0]);
        let y2 = spmspv_semiring(&a, &y1, &ring, &ctx).unwrap();
        assert_eq!(y2.indices(), &[2]);
        assert_eq!(y2.values(), &[5.0]);
    }
}
