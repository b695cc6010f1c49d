//! Batched (multi-source) first-visitor expansion over an `n×k` frontier.
//!
//! CombBLAS 2.0 replaces k per-source SpMSpVs with one masked SpGEMM per
//! traversal level by packing k frontiers into a sparse `n×k` matrix
//! ([`SparseFrontier`]). Row `s` of the product `Fᵀ·A` is exactly
//! `f_s · A` — the single-source kernel applied to source `s`'s frontier
//! — so the shared-memory SpGEMM is computed row by row with the very
//! same SPA kernels of [`crate::ops::spmspv`]. That makes the batched
//! result **bit-identical per source** to k single-source runs by
//! construction: same merge strategy, same accumulation order, same mask
//! semantics, same counters per row.
//!
//! The backend trait's multiplies take a slice of per-source vectors and
//! loop over the single-source kernels directly (`SharedBackend`: the
//! sparse pushes over [`crate::ops::spmspv`], the dense SpMV over
//! [`crate::ops::spmv::spmv_col`]), so [`expand_first_visitor`] is the
//! `SparseFrontier` form of that loop, kept for callers that hold the
//! `n×k` container. In shared memory the batch buys loop fusion; the
//! latency amortization that makes batching a throughput win lives in the
//! distributed backend, where the k per-source gathers and scatters of a
//! level fuse into one bulk message per locale pair
//! (`gblas_dist::ops::spmspv`).

use crate::container::{CsrMatrix, DenseVec, SparseFrontier};
use crate::error::{check_dims, Result};
use crate::mask::VecMask;
use crate::ops::spmspv::{spmspv_first_visitor, SpMSpVOpts};
use crate::par::ExecCtx;

/// Batched first-visitor expansion: row `s` of the output is
/// `f_s · A` under the complement of `visited[s]` (source `s`'s "not yet
/// visited" mask), with minimum-visitor parent values — Listing 7 run
/// over every column of the frontier matrix.
pub fn expand_first_visitor<T: Send + Sync>(
    a: &CsrMatrix<T>,
    f: &SparseFrontier<usize>,
    visited: &[DenseVec<bool>],
    opts: SpMSpVOpts,
    ctx: &ExecCtx,
) -> Result<SparseFrontier<usize>> {
    check_dims("visited masks vs batch width", f.k(), visited.len())?;
    let mut rows = Vec::with_capacity(f.k());
    for (s, x) in f.rows().iter().enumerate() {
        let vm = VecMask::dense(&visited[s]).complement();
        rows.push(spmspv_first_visitor(a, x, Some(&vm), opts, ctx)?);
    }
    SparseFrontier::new(a.ncols(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::SparseVec;
    use crate::gen;

    #[test]
    fn batched_first_visitor_rows_match_single_source_runs() {
        let a = gen::erdos_renyi(200, 6, 7);
        let sources = [0usize, 5, 5, 190]; // duplicate on purpose
        let ctx = ExecCtx::new(4, 1);
        let single = |s: usize| SparseVec::from_sorted(200, vec![s], vec![s]).unwrap();
        let f = SparseFrontier::new(200, sources.iter().map(|&s| single(s)).collect()).unwrap();
        let visited: Vec<DenseVec<bool>> =
            sources.iter().map(|&s| DenseVec::from_fn(200, |i| i == s)).collect();
        let batched = expand_first_visitor(&a, &f, &visited, SpMSpVOpts::default(), &ctx).unwrap();
        for (s, &src) in sources.iter().enumerate() {
            let vm = VecMask::dense(&visited[s]).complement();
            let solo =
                spmspv_first_visitor(&a, &single(src), Some(&vm), SpMSpVOpts::default(), &ctx)
                    .unwrap();
            assert_eq!(batched.row(s), &solo, "source slot {s}");
        }
    }

    #[test]
    fn empty_batch_expands_to_empty_batch() {
        let a = gen::erdos_renyi(50, 3, 23);
        let ctx = ExecCtx::serial();
        let f = SparseFrontier::<usize>::empty(50, 0);
        let out = expand_first_visitor(&a, &f, &[], SpMSpVOpts::default(), &ctx).unwrap();
        assert_eq!(out.k(), 0);
        assert_eq!(out.nnz(), 0);
    }

    #[test]
    fn mask_count_mismatch_is_error() {
        let a = gen::erdos_renyi(50, 3, 29);
        let ctx = ExecCtx::serial();
        let x = SparseVec::from_sorted(50, vec![0], vec![0usize]).unwrap();
        let f = SparseFrontier::new(50, vec![x]).unwrap();
        assert!(expand_first_visitor(&a, &f, &[], SpMSpVOpts::default(), &ctx).is_err());
    }
}
