//! `SpMV`: sparse matrix × dense vector over a semiring.
//!
//! The GraphBLAS `MXV` with a dense operand: once a BFS/PageRank frontier
//! saturates, SpMSpV degenerates to SpMV, so a library needs both. Row
//! parallel: each task owns a contiguous block of output rows, no atomics.
//!
//! Orientation note: [`spmv_row`] computes `y = A x` (combining along each
//! row of `A`), the transpose of the paper's `y ← x A` orientation;
//! [`spmv_col`] computes `y = x A` against a dense `x`.

use crate::algebra::{BinaryOp, Monoid, Semiring};
use crate::container::{CsrMatrix, DenseVec};
use crate::error::{check_dims, Result};
use crate::par::ExecCtx;

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

/// `y = x A`: `y[j] = ⊕_i x[i] ⊗ A[i,j]` with dense `x` — the paper's
/// orientation. Computed with one private accumulator per task and a
/// monoid-combine of the partials (no atomics).
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
    let partials = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut acc = ctx.ws_filled_vec::<C>(ncols, ring.zero::<C>());
        // Deref the pooled guard once: left per entry, whether the buffer
        // pointer stays in a register depends on what this closure happens
        // to be inlined into (one stack reload per nonzero when it does not).
        let out: &mut [C] = &mut acc;
        for i in r.clone() {
            let (cols, vals) = a.row(i);
            for (&j, &av) in cols.iter().zip(vals) {
                out[j] = ring.accumulate(out[j], ring.multiply(x[i], av));
            }
            c.flops += cols.len() as u64;
            c.rand_access += cols.len() as u64;
        }
        c.elems += r.len() as u64;
        acc
    });
    let mut y = vec![ring.zero::<C>(); ncols];
    let mut c = crate::par::Counters::default();
    for p in partials {
        for (slot, &v) in y.iter_mut().zip(p.iter()) {
            *slot = ring.accumulate(*slot, v);
        }
        c.elems += ncols as u64;
    }
    ctx.record(PHASE, |pc| pc.merge(&c));
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
        let y = spmv_col(&a, &x, &semirings::or_and(), &ctx).unwrap();
        assert_eq!(y.as_slice(), &[false, true, false]);
    }
}
