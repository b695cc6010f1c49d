//! `reduce`: fold stored values with a monoid.
//!
//! GraphBLAS `GrB_reduce` in the two shapes the library runs:
//! matrix-rows → vector and matrix → scalar. Parallel partial reductions are
//! combined in task order, so commutativity is required ([`ComMonoid`]) for
//! the parallel entry points.

use crate::algebra::{ComMonoid, Monoid};
use crate::container::{CsrMatrix, DenseVec};
use crate::par::ExecCtx;

/// Phase name for reductions.
pub const PHASE: &str = "reduce";

/// Row-wise matrix reduction: `y[i] = ⊕_j A[i,j]`, dense output.
pub fn reduce_rows<T, M>(a: &CsrMatrix<T>, monoid: &M, ctx: &ExecCtx) -> DenseVec<T>
where
    T: Copy + Send + Sync,
    M: Monoid<T>,
{
    let chunks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut out = Vec::with_capacity(r.len());
        for i in r.clone() {
            let (_, vals) = a.row(i);
            let mut acc = monoid.identity();
            for &v in vals {
                acc = monoid.combine(acc, v);
            }
            c.elems += vals.len() as u64;
            out.push(acc);
        }
        out
    });
    let mut y = Vec::with_capacity(a.nrows());
    for chunk in chunks {
        y.extend(chunk);
    }
    DenseVec::from_vec(y)
}

/// Stored entries per row, `deg[i] = nnz(A[i,:])` — what
/// `reduce_rows(map(a, 1), Plus)` computes, read off the row pointers in
/// `O(nrows)` without loading a value or a column id.
pub fn row_degrees<T: Send + Sync>(a: &CsrMatrix<T>, ctx: &ExecCtx) -> Vec<usize> {
    let rowptr = a.rowptr();
    let chunks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        c.elems += r.len() as u64;
        r.map(|i| rowptr[i + 1] - rowptr[i]).collect::<Vec<_>>()
    });
    chunks.concat()
}

/// Whole-matrix reduction to a scalar.
pub fn reduce_mat<T, M>(a: &CsrMatrix<T>, monoid: &M, ctx: &ExecCtx) -> T
where
    T: Copy + Send + Sync,
    M: ComMonoid<T>,
{
    let vals = a.values();
    let partials = ctx.parallel_for(PHASE, vals.len(), |r, c| {
        let mut acc = monoid.identity();
        for &v in &vals[r.clone()] {
            acc = monoid.combine(acc, v);
        }
        c.elems += r.len() as u64;
        acc
    });
    partials.into_iter().fold(monoid.identity(), |a, b| monoid.combine(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Plus;
    use crate::gen;

    #[test]
    fn row_reduce_counts_degrees() {
        let a = gen::erdos_renyi_bool(100, 6, 17);
        let ones = a.with_values(vec![1u64; a.nnz()]);
        let ctx = ExecCtx::with_threads(4);
        let deg = reduce_rows(&ones, &Plus, &ctx);
        for i in 0..100 {
            assert_eq!(deg[i], a.row_nnz(i) as u64, "row {i}");
        }
    }

    #[test]
    fn row_degrees_equal_the_reduced_ones_matrix_without_reading_values() {
        let a = gen::erdos_renyi(100, 6, 17);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let ones = crate::ops::apply::map_mat(&a, &|_, _, _| 1usize, &ctx);
            let want = reduce_rows(&ones, &Plus, &ctx);
            let _ = ctx.take_profile();
            let garbage = a.with_values(vec![f64::NAN; a.nnz()]);
            assert_eq!(row_degrees(&garbage, &ctx), want.as_slice());
            let c = ctx.take_profile().phase(PHASE);
            assert_eq!((c.elems, c.regions, c.tasks), (100, 1, threads as u64));
        }
        let ctx = ExecCtx::serial();
        assert!(row_degrees(&CsrMatrix::<f64>::empty(0, 0), &ctx).is_empty());
        assert_eq!(row_degrees(&CsrMatrix::<bool>::empty(3, 9), &ctx), [0, 0, 0]);
    }

    #[test]
    fn matrix_scalar_reduce_matches_serial() {
        let a = gen::erdos_renyi(80, 5, 23);
        let serial: f64 = a.values().iter().sum();
        for threads in [1, 3, 8] {
            let ctx = ExecCtx::new(threads, 2);
            let r = reduce_mat(&a, &Plus, &ctx);
            assert!((r - serial).abs() < 1e-9);
        }
    }
}
