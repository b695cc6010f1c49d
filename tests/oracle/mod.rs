//! Test oracles shared by the integration suites (`mod oracle;`).

use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::{CsrMatrix, SparseVec};
use gblas_core::error::{check_dims, Result};
use gblas_core::ops::spmspv::PHASE_SORT;
use gblas_core::par::ExecCtx;
use gblas_core::sort::parallel_merge_sort;

/// Sort-based SpMSpV: emit every product `(col, x[i] ⊗ A[i,j])`, sort the
/// pairs by column, then reduce equal columns with the add monoid — no
/// SPA at all, so it checks the SPA kernels by a different algorithm.
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
    // Emit products.
    let mut keyed: Vec<(usize, usize)> = Vec::new(); // (col, position)
    let mut products: Vec<C> = Vec::new();
    for (rid, &xv) in x.iter() {
        let (cols, vals) = a.row(rid);
        for (&colid, &av) in cols.iter().zip(vals.iter()) {
            keyed.push((colid, products.len()));
            products.push(ring.multiply(xv, av));
        }
    }
    // Sort pairs by column (stable by construction of the secondary key).
    parallel_merge_sort(&mut keyed, ctx, PHASE_SORT);
    // Segmented reduce.
    let mut out_i: Vec<usize> = Vec::new();
    let mut out_v: Vec<C> = Vec::new();
    for &(col, pos) in &keyed {
        if out_i.last() == Some(&col) {
            let last = out_v.last_mut().expect("a column was pushed");
            *last = ring.accumulate(*last, products[pos]);
        } else {
            out_i.push(col);
            out_v.push(products[pos]);
        }
    }
    SparseVec::from_sorted(a.ncols(), out_i, out_v)
}
