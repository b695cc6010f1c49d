//! `select`: keep entries satisfying a predicate (GraphBLAS `GrB_select`).
//!
//! A structural cousin of `Apply`: instead of transforming values it drops
//! entries. Implemented with the thread-private + concatenate compaction
//! (per-task survivor lists over contiguous chunks are already sorted; a
//! matrix task keeps its rows in one flat buffer, not one per row).

use crate::container::{CsrMatrix, SparseVec};
use crate::ops::ewise_mat::{assemble, flat, span_nnz};
use crate::par::ExecCtx;

/// Phase name for select.
pub const PHASE: &str = "select";

/// Keep the entries of `x` where `pred(index, value)` holds.
pub fn select_vec<T: Copy + Send + Sync>(
    x: &SparseVec<T>,
    pred: &(impl Fn(usize, T) -> bool + Sync),
    ctx: &ExecCtx,
) -> SparseVec<T> {
    let xi = x.indices();
    let xv = x.values();
    let parts = ctx.parallel_for(PHASE, x.nnz(), |r, c| {
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        for p in r.clone() {
            if pred(xi[p], xv[p]) {
                inds.push(xi[p]);
                vals.push(xv[p]);
            }
        }
        c.elems += r.len() as u64;
        (inds, vals)
    });
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (i, v) in parts {
        indices.extend(i);
        values.extend(v);
    }
    SparseVec::from_sorted(x.capacity(), indices, values).expect("order preserved")
}

/// Keep the entries of `a` where `pred(row, col, value)` holds.
pub fn select_mat<T: Copy + Send + Sync>(
    a: &CsrMatrix<T>,
    pred: &(impl Fn(usize, usize, T) -> bool + Sync),
    ctx: &ExecCtx,
) -> CsrMatrix<T> {
    let rows = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let (mut lens, mut ki, mut kv) = flat(&r, span_nnz(a, &r));
        for i in r {
            let (cols, vals) = a.row(i);
            let before = ki.len();
            for (&j, &v) in cols.iter().zip(vals) {
                if pred(i, j, v) {
                    ki.push(j);
                    kv.push(v);
                }
            }
            c.elems += cols.len() as u64;
            lens.push(ki.len() - before);
        }
        (lens, ki, kv)
    });
    assemble(a.nrows(), a.ncols(), rows).expect("structure preserved per row")
}

/// The strictly-lower-triangle selector `tril(A, -1)` — the preprocessing
/// step of the triangle-counting example.
pub fn tril<T: Copy + Send + Sync>(a: &CsrMatrix<T>, ctx: &ExecCtx) -> CsrMatrix<T> {
    select_mat(a, &|i, j, _| j < i, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn select_vec_by_value() {
        let x = SparseVec::from_sorted(8, vec![0, 2, 5, 7], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let ctx = ExecCtx::with_threads(2);
        let pos = select_vec(&x, &|_, v: f64| v > 0.0, &ctx);
        assert_eq!(pos.indices(), &[0, 5]);
        assert_eq!(pos.values(), &[1.0, 3.0]);
    }

    #[test]
    fn select_vec_by_index() {
        let x = SparseVec::from_sorted(8, vec![0, 2, 5, 7], vec![1, 1, 1, 1]).unwrap();
        let ctx = ExecCtx::serial();
        let high = select_vec(&x, &|i, _| i >= 4, &ctx);
        assert_eq!(high.indices(), &[5, 7]);
    }

    #[test]
    fn tril_is_strictly_lower() {
        let a = gen::erdos_renyi_symmetric(60, 5, 37);
        let ctx = ExecCtx::with_threads(2);
        let l = tril(&a, &ctx);
        for (i, j, _) in l.iter() {
            assert!(j < i, "({i},{j}) not strictly lower");
        }
        // every strictly-lower entry of a survives
        let expected = a.iter().filter(|&(i, j, _)| j < i).count();
        assert_eq!(l.nnz(), expected);
    }

    #[test]
    fn select_all_and_none() {
        let x = gen::random_sparse_vec(100, 20, 41);
        let ctx = ExecCtx::serial();
        assert_eq!(select_vec(&x, &|_, _| true, &ctx), x);
        assert_eq!(select_vec(&x, &|_, _| false, &ctx).nnz(), 0);
    }
}
