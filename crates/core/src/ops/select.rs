//! `select`: keep entries satisfying a predicate (GraphBLAS `GrB_select`).
//!
//! A structural cousin of `Apply`: instead of transforming values it drops
//! entries. Implemented with the thread-private + concatenate compaction:
//! each task keeps the survivors of its contiguous rows in one flat buffer,
//! not one per row, and the buffers concatenate in task order.

use crate::container::CsrMatrix;
use crate::ops::ewise_mat::{assemble, flat, span_nnz};
use crate::par::ExecCtx;

/// Phase name for select.
pub const PHASE: &str = "select";

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn tril_is_strictly_lower() {
        let a = gen::erdos_renyi_symmetric(60, 5, 37);
        let ctx = ExecCtx::with_threads(2);
        let l = select_mat(&a, &|i, j, _| j < i, &ctx);
        for (i, j, _) in l.iter() {
            assert!(j < i, "({i},{j}) not strictly lower");
        }
        // every strictly-lower entry of a survives
        let expected = a.iter().filter(|&(i, j, _)| j < i).count();
        assert_eq!(l.nnz(), expected);
    }
}
