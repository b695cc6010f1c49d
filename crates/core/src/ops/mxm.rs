//! `MxM`: sparse matrix × sparse matrix (SpGEMM) over a semiring.
//!
//! Row-wise Gustavson: row `i` of `C = A ⊗ B` merges the rows `B[k, :]`
//! for every stored `A[i, k]`. The workspace has one SpGEMM accumulator,
//! the pooled, generation-stamped [`DenseSpa`], one inner loop over it
//! (`spa_row`), and one driver of that loop, [`mxm_emit`]: shared [`mxm`]
//! runs it over two [`CsrMatrix`] operands, a SUMMA locale in `gblas-dist`
//! over the panels of blocks it received ([`LeftOperand`] /
//! [`RightOperand`] views, nothing copied).
//!
//! An optional *structural mask* restricts which output positions may be
//! produced (GraphBLAS masked `mxm` — the triangle-counting pattern
//! `C⟨L⟩ = L · L`). The mask is applied **first**: the accumulator is
//! seeded with `Mᵢ`'s columns, a product landing anywhere else is dropped
//! at the probe, and the row is emitted by walking `Mᵢ` — no index list,
//! no sort, no post-filter; a row whose mask row is empty is skipped.
//!
//! An optional *emit rule* rides on the same kernel ([`mxm_emit`]): each
//! finished entry is stored as the rule maps it, or dropped, before it is
//! sorted or written — the `select(map(A ⊗ B))` chain (MCL's inflate and
//! prune) without the product it would filter. DESIGN §4h has the pricing
//! of every step.

use crate::algebra::{BinaryOp, Monoid, Semiring};
use crate::container::CsrMatrix;
use crate::error::{check_dims, Result};
use crate::par::{split_by_work, Counters, ExecCtx};
use crate::spa::DenseSpa;
use parking_lot::Mutex;
use std::ops::Range;

/// Phase name for SpGEMM.
pub const PHASE: &str = "mxm";

/// What `None` is typed as where a multiply takes no emit rule.
pub type NoRule<C> = fn(usize, usize, C) -> Option<C>;

/// The left operand of [`mxm_emit`], read a row at a time: a
/// [`CsrMatrix`], or blocks of one laid side by side.
pub trait LeftOperand<T>: Sync {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Number of columns (the inner dimension).
    fn ncols(&self) -> usize;
    /// Row `i` as its runs `(offset, columns, values)`, left to right: the
    /// stored entries are `(offset + columns[x], values[x])`, ascending
    /// across the whole row. A [`CsrMatrix`] row is one run at offset 0.
    fn row<'a>(&'a self, i: usize) -> impl Iterator<Item = (usize, &'a [usize], &'a [T])> + Clone
    where
        T: 'a;
}

/// The right operand of [`mxm_emit`], each row a pair of slices: a
/// [`CsrMatrix`], or blocks of one stacked.
pub trait RightOperand<T>: Sync {
    /// Number of rows (the inner dimension).
    fn nrows(&self) -> usize;
    /// Number of columns.
    fn ncols(&self) -> usize;
    /// Row `k`: its sorted columns and their values.
    fn row(&self, k: usize) -> (&[usize], &[T]);
}

impl<T: Copy + Sync> LeftOperand<T> for CsrMatrix<T> {
    fn nrows(&self) -> usize {
        self.nrows()
    }
    fn ncols(&self) -> usize {
        self.ncols()
    }
    fn row<'a>(&'a self, i: usize) -> impl Iterator<Item = (usize, &'a [usize], &'a [T])> + Clone
    where
        T: 'a,
    {
        let (cols, vals) = self.row(i);
        std::iter::once((0, cols, vals))
    }
}

impl<T: Sync> RightOperand<T> for CsrMatrix<T> {
    fn nrows(&self) -> usize {
        self.nrows()
    }
    fn ncols(&self) -> usize {
        self.ncols()
    }
    fn row(&self, k: usize) -> (&[usize], &[T]) {
        self.row(k)
    }
}

/// One row of `A ⊗ B` through the dense SPA `spa`, into the tail
/// `(cols, vals)`; returns the number of entries written, sorted by
/// column. Every output position folds its contributions in ascending
/// inner-dimension order, whatever the operands' blocking.
///
/// The `A` row arrives as [`LeftOperand::row`] gives it, every
/// `offset + column` a row of `b`; `mask` is the mask row's sorted
/// columns. The caller sizes the tail to the row's bound: `nnz(Mᵢ)`
/// when masked, else `min(ncols, Σₖ nnz(B[k,:]))`. An unmasked row lists
/// its touched columns in the caller's row scratch `touched`, so only the
/// entries it keeps reach the tail. Every probe of the accumulator is
/// charged whether or not the mask admits it, every emitted entry once
/// more; only unmasked rows pay a sort.
///
/// `rule(j, v)` decides what a *finished* entry — every product of its
/// position folded, the mask admitting it — is stored as: `Some(w)`
/// stores `w`, `None` drops it, and only survivors are sorted, written
/// and counted in the return value. It is called exactly once per
/// finished entry, in no specified order, so it must be pure; each call
/// is charged one `elems`, as `Apply` charges an entry.
#[allow(clippy::too_many_arguments)]
fn spa_row<'a, A: Copy + 'a, B: Copy, C: Copy>(
    spa: &mut DenseSpa<C>,
    a_row: impl Iterator<Item = (usize, &'a [usize], &'a [A])> + Clone,
    b: &impl RightOperand<B>,
    ring: &Semiring<impl Monoid<C>, impl BinaryOp<A, B, C>>,
    mask: Option<&[usize]>,
    rule: Option<&impl Fn(usize, C) -> Option<C>>,
    touched: &mut Vec<usize>,
    cols: &mut [usize],
    vals: &mut [C],
    c: &mut Counters,
) -> usize {
    if mask.is_some_and(<[usize]>::is_empty) || a_row.clone().all(|(_, k, _)| k.is_empty()) {
        return 0;
    }
    let before = c.flops;
    spa.reset();
    touched.clear();
    for &j in mask.unwrap_or_default() {
        spa.admit(j);
    }
    let gated = mask.is_some();
    for (offset, acols, avals) in a_row {
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(offset + k);
            c.flops += bcols.len() as u64;
            for (&j, &bv) in bcols.iter().zip(bvals) {
                if spa.fold(j, ring.multiply(av, bv), &ring.add, gated) && !gated {
                    touched.push(j);
                }
            }
        }
    }
    // The candidates in column order: the mask row, or the touched list
    // sorted in place. Modeled (not measured) sort work: pdqsort's moves
    // are not instrumentable, so charge the canonical n*ceil(log2 n) —
    // row-local index lists are small and randomly ordered, where the
    // adaptive discount of `crate::sort` would not apply anyway.
    if let Some(m) = mask {
        c.elems += 2 * m.len() as u64;
    } else {
        // An unmasked row is finished here: settle the touched list before
        // the sort, the images back in the SPA, so a dropped entry is
        // neither sorted nor gathered.
        if let Some(rule) = rule {
            c.elems += touched.len() as u64;
            touched.retain(|&j| {
                let Some(v) = spa.get_mut(j) else { return false };
                rule(j, *v).map(|w| *v = w).is_some()
            });
        }
        touched.sort_unstable();
        c.sort_elems += (touched.len().max(1).ilog2() as u64 + 1) * touched.len() as u64;
    }
    let mut n = 0;
    for &j in mask.unwrap_or(touched) {
        let Some(mut v) = spa.get(j) else { continue };
        // A masked row's entries are settled as the walk of `Mᵢ` finds them.
        if let (true, Some(rule)) = (gated, rule) {
            c.elems += 1;
            let Some(w) = rule(j, v) else { continue };
            v = w;
        }
        (cols[n], vals[n]) = (j, v);
        n += 1;
    }
    c.spa_touches += c.flops - before + n as u64;
    n
}

/// `C = A ⊗ B` over `ring`; with `mask = Some(M)`, only positions stored
/// in `M` are produced (`C⟨M⟩ = A ⊗ B`). [`mxm_emit`] without a rule.
pub fn mxm<A, B, C, AddM, MulOp, M>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&CsrMatrix<M>>,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    mxm_emit(a, b, ring, mask, None::<&NoRule<C>>, ctx)
}

/// `C⟨M⟩ = rule(A ⊗ B)`: the masked product with each finished entry
/// `(i, j, v)` stored as `rule(i, j, v)` maps it, or dropped on `None` —
/// `select(map(A ⊗ B))` bit for bit, without the product being stored,
/// sorted or written where the rule drops it. The rule is called exactly
/// once per finished entry, in no specified order: it must be pure.
///
/// Rows are dealt to the context's tasks by **flops** `Σₖ nnz(B[k,:])`
/// ([`split_by_work`]), not by count — on skewed inputs a few hub rows
/// carry most of the work. One pass: `colidx`/`values` are allocated once
/// (zeroed, so a page no entry reaches is never touched) at the rows'
/// bounds — `nnz(Mᵢ)` under a mask, else the row's flops clipped to
/// `ncols` — and every task packs the rows it keeps into its own disjoint
/// window. The gaps the bounds leave between the windows are closed
/// afterwards and the unused tail is given back.
pub fn mxm_emit<A, B, C, AddM, MulOp, M>(
    a: &impl LeftOperand<A>,
    b: &impl RightOperand<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&CsrMatrix<M>>,
    rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("inner dimension", a.ncols(), b.nrows())?;
    if let Some(m) = mask {
        check_dims("mask rows", a.nrows(), m.nrows())?;
        check_dims("mask columns", b.ncols(), m.ncols())?;
    }
    let (nrows, ncols, zero) = (a.nrows(), b.ncols(), ring.zero::<C>());
    let mask_row = |i: usize| mask.map(|m| m.row(i).0);
    // the rows of `b` that row `i` of `a` selects
    let selected = |i: usize| {
        a.row(i).flat_map(|(offset, acols, _)| acols.iter().map(move |&k| b.row(offset + k).0))
    };
    // Chunks may be empty; their count is part of the priced profile, so
    // it stays what a split by rows gives.
    let row_flops = |i: usize| match mask_row(i) {
        Some([]) => 0, // skipped outright
        _ => selected(i).map(<[usize]>::len).sum(),
    };
    let flops: Vec<usize> = (0..nrows).map(row_flops).collect();
    let chunks = split_by_work(nrows, ctx.threads(), |i| flops[i]);
    let flop_bounds;
    let bounds: &[usize] = match mask {
        Some(m) => m.rowptr(),
        None => {
            flop_bounds = prefix_sum(nrows, flops.iter().map(|&f| f.min(ncols)));
            &flop_bounds
        }
    };
    let mut colidx = vec![0usize; bounds[nrows]];
    let mut values = vec![zero; bounds[nrows]];
    // One disjoint window per chunk, each behind a lock only its task takes.
    let (mut cols, mut vals) = (&mut colidx[..], &mut values[..]);
    let width = |r: &Range<usize>| ..bounds[r.end] - bounds[r.start];
    let carve = |r| Mutex::new((cols.split_off_mut(width(r)), vals.split_off_mut(width(r))));
    let windows: Vec<_> = chunks.iter().map(carve).collect();
    let lens = ctx.for_each_task(PHASE, chunks.len(), |t, c| {
        let rows = chunks[t].clone();
        let (Some(cols), Some(vals)) = &mut *windows[t].lock() else { return vec![0; rows.len()] };
        let (mut spa, mut touched) = (ctx.ws_dense_spa(ncols, zero), ctx.ws_vec());
        let mut filled = 0;
        let row = |i: usize| {
            let tail = filled..filled + bounds[i + 1] - bounds[i];
            let (cols, vals) = (&mut cols[tail.clone()], &mut vals[tail]);
            let rule = rule.map(|keep| move |j, v| keep(i, j, v));
            let n = spa_row(
                &mut spa,
                a.row(i),
                b,
                ring,
                mask_row(i),
                rule.as_ref(),
                &mut touched,
                cols,
                vals,
                c,
            );
            filled += n;
            n
        };
        rows.map(row).collect::<Vec<_>>()
    });
    drop(windows);
    // Close the gaps the bounds left between the windows' packed rows.
    let rowptr = prefix_sum(nrows, lens.into_iter().flatten());
    for r in &chunks {
        let packed = bounds[r.start]..bounds[r.start] + rowptr[r.end] - rowptr[r.start];
        colidx.copy_within(packed.clone(), rowptr[r.start]);
        values.copy_within(packed, rowptr[r.start]);
    }
    colidx.truncate(rowptr[nrows]);
    values.truncate(rowptr[nrows]);
    colidx.shrink_to_fit();
    values.shrink_to_fit();
    CsrMatrix::from_raw_parts(nrows, ncols, rowptr, colidx, values)
}

/// `[0, l₀, l₀+l₁, …]` over `n` lengths.
fn prefix_sum(n: usize, lens: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out = Vec::with_capacity(n + 1);
    out.push(0usize);
    for len in lens {
        out.push(out[out.len() - 1] + len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semirings;
    use crate::gen;
    use crate::ops::apply::map_mat;
    use crate::ops::select::select_mat;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dense_mm(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> Vec<Vec<f64>> {
        let mut c = vec![vec![0.0; b.ncols()]; a.nrows()];
        for (i, k, &av) in a.iter() {
            let (bcols, bvals) = b.row(k);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                c[i][j] += av * bv;
            }
        }
        c
    }

    #[test]
    fn matches_dense_reference() {
        let a = gen::erdos_renyi(60, 4, 5);
        let b = gen::erdos_renyi(60, 4, 6);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let c = mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), None, &ctx)
                .unwrap();
            let reference = dense_mm(&a, &b);
            for (i, j, &v) in c.iter() {
                assert!((v - reference[i][j]).abs() < 1e-9, "({i},{j})");
            }
            // every nonzero of the reference is present
            let nnz_ref: usize = reference.iter().flatten().filter(|v| v.abs() > 1e-12).count();
            assert_eq!(c.nnz(), nnz_ref);
        }
    }

    #[test]
    fn masked_mxm_restricts_structure() {
        let a = gen::erdos_renyi(40, 5, 7);
        let b = gen::erdos_renyi(40, 5, 8);
        let mask = gen::erdos_renyi_bool(40, 10, 9);
        let ctx = ExecCtx::serial();
        let c =
            mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), Some(&mask), &ctx)
                .unwrap();
        for (i, j, _) in c.iter() {
            assert!(mask.get(i, j).is_some(), "({i},{j}) escaped the mask");
        }
        // and the values agree with the unmasked product
        let full =
            mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), None, &ctx).unwrap();
        for (i, j, &v) in c.iter() {
            assert_eq!(full.get(i, j), Some(&v));
        }
    }

    /// A deterministic `m × n` test matrix with about `deg` entries per row
    /// (generators only make square ones).
    fn rect(m: usize, n: usize, deg: usize, seed: u64) -> CsrMatrix<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut triplets = std::collections::BTreeMap::new();
        for i in 0..m {
            for _ in 0..deg.min(n) {
                let j = next() as usize % n;
                triplets.insert((i, j), 1.0 + (next() % 7) as f64 / 4.0);
            }
        }
        let triplets: Vec<_> = triplets.into_iter().map(|((i, j), v)| (i, j, v)).collect();
        CsrMatrix::from_triplets(m, n, &triplets).unwrap()
    }

    fn pattern(nrows: usize, ncols: usize, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix<bool> {
        let cells = (0..nrows).flat_map(|i| (0..ncols).map(move |j| (i, j)));
        let kept: Vec<_> = cells.filter(|&(i, j)| keep(i, j)).map(|(i, j)| (i, j, true)).collect();
        CsrMatrix::from_triplets(nrows, ncols, &kept).unwrap()
    }

    fn filtered<C: Copy>(full: &CsrMatrix<C>, mask: &CsrMatrix<bool>) -> CsrMatrix<C> {
        let kept: Vec<_> = full
            .iter()
            .filter(|&(i, j, _)| mask.get(i, j).is_some())
            .map(|(i, j, &v)| (i, j, v))
            .collect();
        CsrMatrix::from_triplets(full.nrows(), full.ncols(), &kept).unwrap()
    }

    /// Bit-level view of a float product, so equality means bit-identity.
    fn bits(c: &CsrMatrix<f64>) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        (c.rowptr().to_vec(), c.colidx().to_vec(), c.values().iter().map(|v| v.to_bits()).collect())
    }

    type Map = fn(usize, usize, f64) -> f64;
    type Keep = fn(usize, usize, f64) -> bool;

    /// The emit rules of the differential: one that maps and drops, one
    /// that drops everything, one that keeps everything as it is, one that
    /// drops bands of 16 rows — whole chunks come back empty between kept
    /// ones.
    fn rules() -> [(Map, Keep); 4] {
        [
            (|i, j, v| v * 0.75 + (i + 2 * j) as f64, |i, j, w| (i + j) % 3 != 0 && w < 90.0),
            (|_, _, v| v, |_, _, _| false),
            (|_, _, v| v, |_, _, _| true),
            (|_, _, v| v, |i, _, _| i % 32 < 16),
        ]
    }

    /// `run(mask, rule)` — a multiply of the operands `full` is the product
    /// of — equals `select(map(product⟨mask⟩))` bit for bit under every rule
    /// and mask, the rule having run exactly once per entry of that product.
    fn check_rules(
        what: &str,
        full: &CsrMatrix<f64>,
        masks: &[CsrMatrix<bool>],
        run: impl Fn(
            Option<&CsrMatrix<bool>>,
            &(dyn Fn(usize, usize, f64) -> Option<f64> + Sync),
        ) -> CsrMatrix<f64>,
    ) {
        let serial = ExecCtx::serial();
        for (r, (map, keep)) in rules().into_iter().enumerate() {
            for (which, mask) in std::iter::once(None).chain(masks.iter().map(Some)).enumerate() {
                let what = format!("{what} rule {r} mask {which}");
                let product = mask.map_or_else(|| full.clone(), |m| filtered(full, m));
                let calls = AtomicUsize::new(0);
                let fused = run(mask, &|i, j, v| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    let w = map(i, j, v);
                    keep(i, j, w).then_some(w)
                });
                let unfused = select_mat(&map_mat(&product, &map, &serial), &keep, &serial);
                assert_eq!(bits(&fused), bits(&unfused), "{what}");
                assert_eq!(calls.into_inner(), product.nnz(), "{what}: once per finished entry");
            }
        }
    }

    /// The differential harness: on every input shape and mask, masked
    /// `mxm` equals unmasked `mxm` filtered by the mask, bit for bit on
    /// both semirings; every logical × real thread count gives the
    /// identical matrix (f64 included — each position accumulates in
    /// ascending `k` everywhere). Likewise with an emit rule
    /// ([`check_rules`]).
    #[test]
    fn masked_equals_filtered_unmasked_on_every_shape_and_thread_count() {
        let skewed = gen::rmat(7, 6, 11);
        let inputs = [
            (gen::erdos_renyi(90, 5, 21), gen::erdos_renyi(90, 4, 22)),
            // 23 hub rows scan more products than there are columns, so
            // their unmasked bounds are clipped to `ncols`
            (
                skewed.clone(),
                crate::ops::transpose::transpose(&skewed, &ExecCtx::serial()).unwrap(),
            ),
            (rect(40, 70, 5, 31), rect(70, 25, 4, 32)),
            (rect(0, 30, 3, 33), rect(30, 12, 3, 34)),
            (rect(17, 0, 3, 35), rect(0, 9, 3, 36)),
        ];
        let (count, times) = (semirings::plus_pair(), semirings::plus_times_f64());
        for (a, b) in &inputs {
            let (m, n) = (a.nrows(), b.ncols());
            let serial = ExecCtx::serial();
            let full_u: CsrMatrix<u64> =
                mxm::<_, _, _, _, _, bool>(a, b, &count, None, &serial).unwrap();
            let full_f: CsrMatrix<f64> =
                mxm::<_, _, _, _, _, bool>(a, b, &times, None, &serial).unwrap();
            let masks = [
                pattern(m, n, |i, j| (i * 7 + j * 3) % 5 == 0),
                pattern(m, n, |i, j| i % 3 != 0 && (i + j) % 2 == 0), // empty mask rows
                pattern(m, n, |_, _| true),                           // denser than the product
                pattern(m, n, |i, j| full_u.get(i, j).is_none() && (i + j) % 4 == 0), // disjoint
                pattern(m, n, |_, _| false),
            ];
            for (threads, real) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (8, 1), (8, 2)] {
                let ctx = ExecCtx::new(threads, real);
                let u: CsrMatrix<u64> =
                    mxm::<_, _, _, _, _, bool>(a, b, &count, None, &ctx).unwrap();
                let f: CsrMatrix<f64> =
                    mxm::<_, _, _, _, _, bool>(a, b, &times, None, &ctx).unwrap();
                assert_eq!(u, full_u, "{m}x{n} t={threads}/{real}");
                assert_eq!(bits(&f), bits(&full_f), "{m}x{n} t={threads}/{real}");
                for (which, mask) in masks.iter().enumerate() {
                    let mu: CsrMatrix<u64> = mxm(a, b, &count, Some(mask), &ctx).unwrap();
                    let mf: CsrMatrix<f64> = mxm(a, b, &times, Some(mask), &ctx).unwrap();
                    assert_eq!(
                        mu,
                        filtered(&full_u, mask),
                        "{m}x{n} mask {which} t={threads}/{real}"
                    );
                    assert_eq!(bits(&mf), bits(&filtered(&full_f, mask)), "{m}x{n} mask {which}");
                }
                check_rules(
                    &format!("{m}x{n} t={threads}/{real}"),
                    &full_f,
                    &masks,
                    |mask, rule| mxm_emit(a, b, &times, mask, Some(&rule), &ctx).unwrap(),
                );
            }
        }
    }

    /// The pricing rule. Unmasked counters are the ones recorded on this
    /// input before the row kernel existed; a masked row pays no sort and
    /// touches the SPA once per product scanned plus once per entry kept.
    #[test]
    fn counters_charge_the_work_done() {
        let a = gen::rmat(7, 6, 11);
        let b = gen::erdos_renyi(128, 5, 12);
        let mask = gen::erdos_renyi_bool(128, 9, 13);
        let ring = semirings::plus_times_f64();
        for threads in [1u64, 3] {
            let ctx = ExecCtx::new(threads as usize, 1);
            let c = mxm::<_, _, f64, _, _, bool>(&a, &b, &ring, None, &ctx).unwrap();
            let recorded = Counters {
                flops: 2661,
                sort_elems: 12035,
                spa_touches: 4807,
                tasks: threads,
                regions: 1,
                ..Counters::default()
            };
            assert_eq!((c.nnz(), ctx.take_profile().phase(PHASE)), (2146, recorded));
            let c = mxm::<_, _, f64, _, _, bool>(&a, &b, &ring, Some(&mask), &ctx).unwrap();
            let masked = ctx.take_profile().phase(PHASE);
            assert_eq!((c.nnz(), masked.flops, masked.sort_elems), (156, 2661, 0));
            assert_eq!(masked.spa_touches, masked.flops + c.nnz() as u64);
            let walked = (0..128).filter(|&i| a.row_nnz(i) > 0).map(|i| mask.row_nnz(i) as u64);
            assert_eq!(masked.elems, 2 * walked.sum::<u64>(), "seed + emit walk of Mᵢ");
            assert_eq!((masked.tasks, masked.regions), (threads, 1));
        }
    }

    #[test]
    fn dimension_mismatch() {
        let a = gen::erdos_renyi(10, 2, 1);
        let b = gen::erdos_renyi(11, 2, 2);
        let ctx = ExecCtx::serial();
        assert!(
            mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), None, &ctx).is_err()
        );
    }

    #[test]
    fn identity_times_a_is_a() {
        let n = 30;
        let a = gen::erdos_renyi(n, 3, 13);
        let eye = CsrMatrix::from_triplets(n, n, &(0..n).map(|i| (i, i, 1.0)).collect::<Vec<_>>())
            .unwrap();
        let ctx = ExecCtx::serial();
        let c = mxm::<_, _, f64, _, _, bool>(&eye, &a, &semirings::plus_times_f64(), None, &ctx)
            .unwrap();
        assert_eq!(c.rowptr(), a.rowptr());
        assert_eq!(c.colidx(), a.colidx());
        for (x, y) in c.values().iter().zip(a.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
