//! Element-wise matrix addition: `eWiseAdd` on CSR, plus the flat row-block
//! helpers it shares with `select`.
//!
//! The GraphBLAS spec defines `eWiseMult`/`eWiseAdd` uniformly over
//! vectors and matrices (§III: "the API does not differentiate matrices as
//! sparse or dense"); the vector forms live in [`super::ewise`]. The
//! matrix form here is the union that sums SpGEMM partial products (3-D
//! SUMMA's layer merge, the single-stage SUMMA baseline).
//! Row-parallel: each task merges a contiguous block of row pairs into one
//! flat `(row lengths, columns, values)` buffer sized up front from the
//! operands' row pointers, so no synchronization is needed, per-row
//! outputs stay sorted and a call allocates per task, not per row.

use crate::algebra::BinaryOp;
use crate::container::CsrMatrix;
use crate::error::{GblasError, Result};
use crate::par::ExecCtx;
use std::ops::Range;

/// Phase name for matrix element-wise ops.
pub const PHASE: &str = "ewise-mat";

fn check_same_shape<A, B>(a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> Result<()> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(GblasError::DimensionMismatch {
            expected: format!("{}x{}", a.nrows(), a.ncols()),
            actual: format!("{}x{}", b.nrows(), b.ncols()),
        });
    }
    Ok(())
}

/// `C = A .+ B`: union of structures, values combined with `op` where both
/// are present.
pub fn ewise_add_mat<T, Op>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: &Op,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<T>>
where
    T: Copy + Send + Sync,
    Op: BinaryOp<T, T, T>,
{
    check_same_shape(a, b)?;
    let rows = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let (mut lens, mut cols, mut vals) = flat(&r, span_nnz(a, &r) + span_nnz(b, &r));
        for i in r {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let before = cols.len();
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() || q < bc.len() {
                c.elems += 1;
                if q >= bc.len() || (p < ac.len() && ac[p] < bc[q]) {
                    cols.push(ac[p]);
                    vals.push(av[p]);
                    p += 1;
                } else if p >= ac.len() || bc[q] < ac[p] {
                    cols.push(bc[q]);
                    vals.push(bv[q]);
                    q += 1;
                } else {
                    cols.push(ac[p]);
                    vals.push(op.eval(av[p], bv[q]));
                    c.flops += 1;
                    p += 1;
                    q += 1;
                }
            }
            lens.push(cols.len() - before);
        }
        (lens, cols, vals)
    });
    assemble(a.nrows(), a.ncols(), rows)
}

/// One task's output rows, flat: per-row lengths plus the rows' columns
/// and values back to back.
pub(crate) type Flat<C> = (Vec<usize>, Vec<usize>, Vec<C>);

/// Entries stored in the rows `r` of `m`.
pub(crate) fn span_nnz<T>(m: &CsrMatrix<T>, r: &Range<usize>) -> usize {
    m.rowptr()[r.end] - m.rowptr()[r.start]
}

/// An empty [`Flat`] with room for the rows `r` holding `nnz` entries.
pub(crate) fn flat<C>(r: &Range<usize>, nnz: usize) -> Flat<C> {
    (Vec::with_capacity(r.len()), Vec::with_capacity(nnz), Vec::with_capacity(nnz))
}

/// Concatenate the tasks' row blocks, in task order, into one CSR matrix.
pub(crate) fn assemble<C: Copy>(
    nrows: usize,
    ncols: usize,
    blocks: Vec<Flat<C>>,
) -> Result<CsrMatrix<C>> {
    let nnz = blocks.iter().map(|(_, cols, _)| cols.len()).sum();
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let (mut colidx, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for (lens, cols, vals) in blocks {
        for len in lens {
            rowptr.push(rowptr[rowptr.len() - 1] + len);
        }
        colidx.extend(cols);
        values.extend(vals);
    }
    CsrMatrix::from_raw_parts(nrows, ncols, rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Plus;
    use crate::gen;

    #[test]
    fn add_is_structural_union() {
        let a = gen::erdos_renyi(60, 4, 3);
        let b = gen::erdos_renyi(60, 4, 4);
        let ctx = ExecCtx::with_threads(2);
        let c = ewise_add_mat(&a, &b, &Plus, &ctx).unwrap();
        for (i, j, &v) in c.iter() {
            let expect = a.get(i, j).copied().unwrap_or(0.0) + b.get(i, j).copied().unwrap_or(0.0);
            assert!((v - expect).abs() < 1e-12);
        }
        let mut union = 0usize;
        for (i, j, _) in a.iter() {
            let _ = (i, j);
            union += 1;
        }
        union += b.iter().filter(|&(i, j, _)| a.get(i, j).is_none()).count();
        assert_eq!(c.nnz(), union);
    }

    #[test]
    fn add_with_self_doubles() {
        let a = gen::erdos_renyi(30, 3, 5);
        let ctx = ExecCtx::serial();
        let c = ewise_add_mat(&a, &a, &Plus, &ctx).unwrap();
        assert_eq!(c.rowptr(), a.rowptr());
        for (x, y) in c.values().iter().zip(a.values()) {
            assert!((x - 2.0 * y).abs() < 1e-12);
        }
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = CsrMatrix::<f64>::empty(3, 3);
        let b = CsrMatrix::<f64>::empty(3, 4);
        let ctx = ExecCtx::serial();
        assert!(ewise_add_mat(&a, &b, &Plus, &ctx).is_err());
    }

    #[test]
    fn empty_matrices() {
        let a = CsrMatrix::<f64>::empty(5, 5);
        let ctx = ExecCtx::serial();
        let c = ewise_add_mat(&a, &a, &Plus, &ctx).unwrap();
        assert_eq!(c.nnz(), 0);
    }
}
