//! `MxV` with a sparse vector on the right: `y = A ⊗ x`, row-oriented.
//!
//! The transpose-free complement of [`super::spmspv`] (which computes
//! `y ← x A`). With CSR storage the natural algorithm is row-wise
//! merge/probe: for each row `i`, combine `A[i, j] ⊗ x[j]` over the
//! intersection of the row's columns with `x`'s stored indices. Two
//! intersection strategies are chosen per row by density, mirroring how a
//! production GraphBLAS specializes "based on the sparsity of its
//! operands" (§III):
//!
//! * **merge** — linear walk of both sorted lists when they are comparable
//!   in size;
//! * **probe** — binary-search the shorter list into the longer one when
//!   the sizes are lopsided (counted as `search_probes`, the §III-B cost).

use crate::algebra::{BinaryOp, Monoid, Semiring};
use crate::container::{CsrMatrix, SparseVec};
use crate::error::{check_dims, Result};
use crate::par::ExecCtx;

/// Phase name for row-oriented sparse MxV.
pub const PHASE: &str = "mxv";

/// `y[i] = ⊕_j A[i,j] ⊗ x[j]` with sparse `x` and sparse output.
pub fn mxv_sparse<A, B, C, AddM, MulOp>(
    a: &CsrMatrix<A>,
    x: &SparseVec<B>,
    ring: &Semiring<AddM, MulOp>,
    ctx: &ExecCtx,
) -> Result<SparseVec<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + PartialEq + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("x length vs matrix cols", a.ncols(), x.capacity())?;
    let xi = x.indices();
    let xv = x.values();
    let row_blocks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut out = ctx.ws_vec::<(usize, C)>();
        for i in r.clone() {
            let (cols, vals) = a.row(i);
            if cols.is_empty() || xi.is_empty() {
                continue;
            }
            let mut acc = ring.zero::<C>();
            let mut hit = false;
            // Choose the per-row intersection strategy.
            if cols.len() * 8 < xi.len() {
                // probe each row entry into x
                for (&j, &av) in cols.iter().zip(vals) {
                    let mut probes = 0u64;
                    if let Some(&bx) = x.get_probed(j, &mut probes) {
                        acc = ring.accumulate(acc, ring.multiply(av, bx));
                        hit = true;
                        c.flops += 1;
                    }
                    c.search_probes += probes;
                }
            } else if xi.len() * 8 < cols.len() {
                // probe each x entry into the row
                for (pos, &j) in xi.iter().enumerate() {
                    let mut lo = 0usize;
                    let mut hi = cols.len();
                    while lo < hi {
                        c.search_probes += 1;
                        let mid = lo + (hi - lo) / 2;
                        match cols[mid].cmp(&j) {
                            std::cmp::Ordering::Less => lo = mid + 1,
                            std::cmp::Ordering::Greater => hi = mid,
                            std::cmp::Ordering::Equal => {
                                acc = ring.accumulate(acc, ring.multiply(vals[mid], xv[pos]));
                                hit = true;
                                c.flops += 1;
                                break;
                            }
                        }
                    }
                }
            } else {
                // merge walk
                let (mut p, mut q) = (0usize, 0usize);
                while p < cols.len() && q < xi.len() {
                    c.elems += 1;
                    match cols[p].cmp(&xi[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            acc = ring.accumulate(acc, ring.multiply(vals[p], xv[q]));
                            hit = true;
                            c.flops += 1;
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
            if hit {
                out.push((i, acc));
            }
        }
        out
    });
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for block in row_blocks {
        for &(i, v) in block.iter() {
            indices.push(i);
            values.push(v);
        }
    }
    SparseVec::from_sorted(a.nrows(), indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semirings;
    use crate::gen;

    fn dense_reference(a: &CsrMatrix<f64>, x: &SparseVec<f64>) -> Vec<f64> {
        let xd = x.to_dense(0.0);
        let mut y = vec![0.0; a.nrows()];
        for (i, j, &v) in a.iter() {
            y[i] += v * xd[j];
        }
        y
    }

    #[test]
    fn matches_dense_reference_across_densities() {
        let a = gen::erdos_renyi(400, 8, 61);
        for nnz in [3usize, 40, 350] {
            // sweeps all three intersection strategies
            let x = gen::random_sparse_vec(400, nnz, 62);
            for threads in [1, 4] {
                let ctx = ExecCtx::new(threads, 2);
                let y = mxv_sparse(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
                let expect = dense_reference(&a, &x);
                let dense = y.to_dense(0.0);
                for i in 0..400 {
                    assert!(
                        (dense[i] - expect[i]).abs() < 1e-9,
                        "nnz={nnz} row {i}: {} vs {}",
                        dense[i],
                        expect[i]
                    );
                }
            }
        }
    }

    #[test]
    fn output_structure_is_reached_rows_only() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let x = SparseVec::from_sorted(4, vec![1], vec![5.0]).unwrap();
        let ctx = ExecCtx::serial();
        let y: SparseVec<f64> = mxv_sparse(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
        assert_eq!(y.indices(), &[0]);
        assert_eq!(y.values(), &[5.0]);
    }

    #[test]
    fn agrees_with_spmspv_on_transpose() {
        // y = A x  ==  y = x (A^T)
        let a = gen::erdos_renyi(200, 5, 63);
        let x = gen::random_sparse_vec(200, 25, 64);
        let ctx = ExecCtx::serial();
        let y1 = mxv_sparse(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
        let at = crate::ops::transpose::transpose(&a, &ctx).unwrap();
        let y2 = crate::ops::spmspv::spmspv_semiring(&at, &x, &semirings::plus_times_f64(), &ctx)
            .unwrap();
        assert_eq!(y1.indices(), y2.indices());
        for (p, q) in y1.values().iter().zip(y2.values()) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn dimension_check() {
        let a = gen::erdos_renyi(10, 2, 65);
        let x = gen::random_sparse_vec(11, 2, 66);
        let ctx = ExecCtx::serial();
        assert!(mxv_sparse::<_, _, f64, _, _>(&a, &x, &semirings::plus_times_f64(), &ctx).is_err());
    }
}
