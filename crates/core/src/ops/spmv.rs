//! `SpMV`: sparse matrix × dense vector over a semiring.
//!
//! The GraphBLAS `MXV` with a dense operand: once a BFS/PageRank frontier
//! saturates, SpMSpV degenerates to SpMV, so a library needs both. Row
//! parallel: each task owns a contiguous block of output rows, no atomics.
//!
//! Orientation note: [`spmv_row`] computes `y = A x` (combining along each
//! row of `A`), the transpose of the paper's `y ← x A` orientation;
//! [`spmv_col`] computes `y = x A` against a dense `x`. It scatters, so
//! its tasks own private accumulators — one per `6·ncols` stored entries,
//! sized by the work and never by a thread count — over rows dealt by
//! nonzeros, folded into partial 0 in ascending order. Hence its invariant:
//! result bits and profile counters are a function of the operands alone;
//! thread counts, logical or real, only decide which OS thread runs a task.

use crate::algebra::{BinaryOp, Monoid, Semiring};
use crate::container::{CsrMatrix, DenseVec};
use crate::error::{check_dims, Result};
use crate::par::{split_by_work, ExecCtx};

/// Phase name for SpMV.
pub const PHASE: &str = "spmv";

/// `y = A x`: `y[i] = ⊕_j A[i,j] ⊗ x[j]`.
pub fn spmv_row<A, B, C, AddM, MulOp>(
    a: &CsrMatrix<A>,
    x: &DenseVec<B>,
    ring: &Semiring<AddM, MulOp>,
    ctx: &ExecCtx,
) -> Result<DenseVec<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("x length vs matrix cols", a.ncols(), x.len())?;
    let row_chunks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut out = ctx.ws_vec::<C>();
        for i in r.clone() {
            let (cols, vals) = a.row(i);
            let mut acc = ring.zero::<C>();
            for (&j, &av) in cols.iter().zip(vals) {
                acc = ring.accumulate(acc, ring.multiply(av, x[j]));
            }
            c.flops += cols.len() as u64;
            c.rand_access += cols.len() as u64; // x[j] gathers
            out.push(acc);
        }
        c.elems += r.len() as u64;
        out
    });
    let mut y = Vec::with_capacity(a.nrows());
    for chunk in row_chunks {
        y.extend_from_slice(&chunk);
    }
    Ok(DenseVec::from_vec(y))
}

/// How many private accumulators [`spmv_col`] uses: one per `6 · ncols`
/// stored entries, at least one — read off the matrix alone. The 6: on this
/// host an accumulator element costs 0.3–0.8 ns to zero-fill and fold, a
/// stored entry 1.5–1.8 ns to multiply in (EXPERIMENTS.md, "Accumulators by
/// work"), so fill + fold stay under 0.8 / (6 · 1.5) ≈ a tenth of the
/// multiply and the accumulators under a twelfth of the CSR's bytes.
fn accumulators(nnz: usize, ncols: usize) -> usize {
    (nnz / (6 * ncols).max(1)).max(1)
}

/// `y = x A`: `y[j] = ⊕_i x[i] ⊗ A[i,j]` with dense `x` — the paper's
/// orientation. `P =` [`accumulators`] tasks each own a contiguous run of
/// rows holding ≈ `nnz / P` entries and a private `ncols`-wide accumulator
/// (no atomics); partial 0 becomes `y`, partials `1..P` fold into it in
/// ascending order.
pub fn spmv_col<A, B, C, AddM, MulOp>(
    a: &CsrMatrix<B>,
    x: &DenseVec<A>,
    ring: &Semiring<AddM, MulOp>,
    ctx: &ExecCtx,
) -> Result<DenseVec<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("x length vs matrix rows", a.nrows(), x.len())?;
    let ncols = a.ncols();
    let chunks = split_by_work(a.nrows(), accumulators(a.nnz(), ncols), |i| a.row_nnz(i));
    let mut partials = ctx
        .for_each_task(PHASE, chunks.len(), |t, c| {
            let mut acc = ctx.ws_filled_vec::<C>(ncols, ring.zero::<C>());
            // Deref the pooled guard once: left per entry, whether the buffer
            // pointer stays in a register depends on what this closure happens
            // to be inlined into (one stack reload per nonzero when it does not).
            let out: &mut [C] = &mut acc;
            for i in chunks[t].clone() {
                let (cols, vals) = a.row(i);
                for (&j, &av) in cols.iter().zip(vals) {
                    out[j] = ring.accumulate(out[j], ring.multiply(x[i], av));
                }
                c.flops += cols.len() as u64;
                c.rand_access += cols.len() as u64;
            }
            c.elems += chunks[t].len() as u64;
            acc
        })
        .into_iter();
    let mut y = partials.next().map_or_else(Vec::new, |first| first.to_vec());
    for p in partials {
        for (slot, &v) in y.iter_mut().zip(p.iter()) {
            *slot = ring.accumulate(*slot, v);
        }
    }
    ctx.record(PHASE, |pc| pc.elems += ((chunks.len() - 1) * ncols) as u64);
    Ok(DenseVec::from_vec(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semirings;
    use crate::gen;

    #[test]
    fn row_spmv_matches_reference() {
        let a = gen::erdos_renyi(200, 5, 1);
        let x = DenseVec::from_fn(200, |i| (i % 7) as f64);
        let ctx = ExecCtx::with_threads(2);
        let y = spmv_row(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
        for i in 0..200 {
            let (cols, vals) = a.row(i);
            let expect: f64 = cols.iter().zip(vals).map(|(&j, &v)| v * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn col_spmv_matches_reference() {
        let a = gen::erdos_renyi(150, 4, 2);
        let x = DenseVec::from_fn(150, |i| 1.0 + (i % 3) as f64);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let y = spmv_col(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
            let mut expect = vec![0.0; 150];
            for (i, j, &v) in a.iter() {
                expect[j] += x[i] * v;
            }
            for j in 0..150 {
                assert!((y[j] - expect[j]).abs() < 1e-9, "col {j}");
            }
        }
    }

    #[test]
    fn accumulators_are_one_per_six_ncols_entries_and_never_zero() {
        assert_eq!(accumulators(0, 0), 1, "empty matrix");
        assert_eq!(accumulators(0, 100), 1, "no entries");
        assert_eq!(accumulators(1199, 100), 1);
        assert_eq!(accumulators(1200, 100), 2);
        assert_eq!(accumulators(1799, 100), 2);
        assert_eq!(accumulators(14 * 131_072, 131_072), 2, "RMAT s17 keeps two");
    }

    /// `tasks = P` and the fold charges `(P − 1) · ncols` elements on every
    /// shape, the degenerate ones included, under any logical thread count.
    #[test]
    fn col_spmv_counts_what_ran() {
        let dense = |nrows: usize, ncols: usize| {
            let t: Vec<_> = (0..nrows * ncols).map(|e| (e / ncols, e % ncols, 1.0)).collect();
            CsrMatrix::from_triplets(nrows, ncols, &t).unwrap()
        };
        let one_row: Vec<_> = (0..9).map(|j| (4, j, 1.0)).collect();
        let cases = [
            (CsrMatrix::empty(0, 0), 1),
            (CsrMatrix::empty(0, 7), 1), // fewer rows than the one task
            (CsrMatrix::empty(7, 0), 1),
            (CsrMatrix::from_triplets(50, 9, &one_row).unwrap(), 1),
            (dense(40, 2), 6),
            (dense(18, 1), 3),
        ];
        for (a, p) in &cases {
            let x = DenseVec::filled(a.nrows(), 2.0);
            for threads in [1, 24] {
                let ctx = ExecCtx::simulated(threads);
                let y = spmv_col(a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
                let column_sums: Vec<f64> = (0..a.ncols())
                    .map(|j| 2.0 * a.iter().filter(|e| e.1 == j).count() as f64)
                    .collect();
                assert_eq!(y.as_slice(), column_sums);
                let got = ctx.take_profile().phase(PHASE);
                let what = format!("{}x{} at {threads} threads", a.nrows(), a.ncols());
                assert_eq!((got.tasks, got.regions), (*p as u64, 1), "{what}");
                assert_eq!(got.elems as usize, a.nrows() + (p - 1) * a.ncols(), "{what}");
                assert_eq!(got.flops as usize, a.nnz(), "{what}");
            }
        }
    }

    #[test]
    fn dimension_checks() {
        let a = gen::erdos_renyi(10, 2, 3);
        let short = DenseVec::filled(9, 1.0);
        let ctx = ExecCtx::serial();
        assert!(
            spmv_row::<_, _, f64, _, _>(&a, &short, &semirings::plus_times_f64(), &ctx).is_err()
        );
        assert!(
            spmv_col::<_, _, f64, _, _>(&a, &short, &semirings::plus_times_f64(), &ctx).is_err()
        );
    }

    #[test]
    fn boolean_reachability_spmv() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, true), (1, 2, true)]).unwrap();
        let x = DenseVec::from_vec(vec![true, false, false]);
        let ctx = ExecCtx::serial();
        let y = spmv_col(&a, &x, &semirings::plus_times::<bool>(), &ctx).unwrap();
        assert_eq!(y.as_slice(), &[false, true, false]);
    }
}
