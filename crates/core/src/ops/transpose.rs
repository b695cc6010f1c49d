//! `transpose`: CSR → CSR transposition by counting sort.
//!
//! `Aᵀ` is assembled in `O(nnz + ncols)`: count entries per column, prefix
//! sum into the new row pointers, then scatter. Scattering in row-major
//! input order keeps each output row's column ids sorted, preserving the
//! CSR invariant without a sort.

use crate::container::CsrMatrix;
use crate::error::Result;
use crate::par::ExecCtx;

/// Phase name for transpose.
pub const PHASE: &str = "transpose";

/// Compute `Aᵀ`.
pub fn transpose<T: Copy + Send + Sync>(a: &CsrMatrix<T>, ctx: &ExecCtx) -> Result<CsrMatrix<T>> {
    let nnz = a.nnz();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    // Column histogram (parallel partial histograms, then combined).
    let colidx = a.colidx();
    let partial = ctx.parallel_for(PHASE, nnz, |r, c| {
        let mut h = vec![0usize; ncols];
        for &j in &colidx[r.clone()] {
            h[j] += 1;
        }
        c.elems += r.len() as u64;
        c.rand_access += r.len() as u64;
        h
    });
    let mut rowptr_t = vec![0usize; ncols + 1];
    for h in &partial {
        for (j, &cnt) in h.iter().enumerate() {
            rowptr_t[j + 1] += cnt;
        }
    }
    for j in 0..ncols {
        rowptr_t[j + 1] += rowptr_t[j];
    }
    // Scatter (serial to preserve per-row sortedness deterministically):
    // each entry's index and value land in the same pass.
    let mut cursor = rowptr_t.clone();
    let mut colidx_t = vec![0usize; nnz];
    let values = a.values();
    let mut values_t: Vec<T> = if nnz == 0 { Vec::new() } else { vec![values[0]; nnz] };
    let mut c = crate::par::Counters::default();
    let rowptr = a.rowptr();
    for i in 0..nrows {
        for k in rowptr[i]..rowptr[i + 1] {
            let j = colidx[k];
            let t = cursor[j];
            cursor[j] += 1;
            colidx_t[t] = i;
            values_t[t] = values[k];
            c.rand_access += 1;
        }
    }
    c.elems += nnz as u64;
    ctx.record(PHASE, |pc| pc.merge(&c));
    CsrMatrix::from_raw_parts(ncols, nrows, rowptr_t, colidx_t, values_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn transpose_round_trip() {
        let a = gen::erdos_renyi(120, 6, 29);
        let ctx = ExecCtx::with_threads(2);
        let t = transpose(&a, &ctx).unwrap();
        assert_eq!(t.nrows(), a.ncols());
        assert_eq!(t.ncols(), a.nrows());
        assert_eq!(t.nnz(), a.nnz());
        for (i, j, &v) in a.iter() {
            assert_eq!(t.get(j, i), Some(&v), "({i},{j})");
        }
        let tt = transpose(&t, &ctx).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn transpose_rectangular() {
        let a = CsrMatrix::from_triplets(2, 4, &[(0, 3, 1.0), (1, 0, 2.0), (1, 2, 3.0)]).unwrap();
        let ctx = ExecCtx::serial();
        let t = transpose(&a, &ctx).unwrap();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(3, 0), Some(&1.0));
        assert_eq!(t.get(0, 1), Some(&2.0));
    }

    #[test]
    fn transpose_empty() {
        let a = CsrMatrix::<f64>::empty(3, 5);
        let ctx = ExecCtx::serial();
        let t = transpose(&a, &ctx).unwrap();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.nnz(), 0);
    }
}
