//! Triangle counting via masked SpGEMM.
//!
//! The Sandia/GraphBLAS formulation: with `L = tril(A)` the strictly-lower
//! triangle of a symmetric adjacency matrix, the triangle count is
//! `sum(C)` where `C⟨L⟩ = L · L` over the plus-pair semiring — each kept
//! entry `C[i,j]` counts the vertices `k` with `j < k < i` closing a
//! triangle on edge `(i, j)`. Exercises `select` (tril), masked `mxm` and
//! `reduce`.
//!
//! Why `L · L` and not `L · Lᵀ`: both count every triangle once, but the
//! row-wise multiply scans one product per wedge it lists. `L · Lᵀ` lists
//! the wedges centred on their *lowest* vertex `k` — `Σₖ |N⁺(k)|²`, with
//! `N⁺(k)` the higher-numbered neighbours — while `L · L` lists them
//! centred on their *middle* vertex — `Σₖ |N⁺(k)| · |N⁻(k)|`. On a
//! skewed graph whose hubs have low ids (an unpermuted RMAT) that is
//! about 5 × fewer products, and no operand needs a transpose, so the
//! distributed solve skips the transpose's all-to-all as well.
//!
//! One implementation, [`triangle_count_on`], generic over
//! [`GblasBackend`]; the distributed wrapper runs the masked SpGEMM as a
//! multi-stage sparse SUMMA on any rectangular `pr×pc` locale grid
//! (non-square locale counts like p=6 distribute as 2×3).

use gblas_core::algebra::{semirings, Plus, Scalar};
use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::CsrMatrix;
use gblas_core::error::{check_dims, Result};
use gblas_core::ops::mxm::NoRule;
use gblas_core::par::ExecCtx;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx};

/// Masked-SpGEMM triangle count over any backend: `sum(C)` with
/// `C⟨L⟩ = L · L` over plus-pair, `L = tril(A)`.
pub fn triangle_count_on<B: GblasBackend, T: Scalar>(backend: &B, a: &B::Matrix<T>) -> Result<u64> {
    check_dims("square matrix", backend.mat_nrows(a), backend.mat_ncols(a))?;
    let l = backend.mat_select(a, &|i, j, _| j < i)?;
    let c: B::Matrix<u64> =
        backend.mxm_masked(&l, &l, &semirings::plus_pair(), Some(&l), None::<&NoRule<u64>>)?;
    backend.reduce_mat(&c, &Plus)
}

/// Count triangles in the *symmetric* adjacency matrix `a` (values are
/// ignored; the structure is the graph).
pub fn triangle_count<T: Scalar>(a: &CsrMatrix<T>, ctx: &ExecCtx) -> Result<u64> {
    triangle_count_on(&SharedBackend::new(ctx), a)
}

/// Distributed triangle counting: the same [`triangle_count_on`] text
/// with the multi-stage sparse-SUMMA masked SpGEMM as the multiply, on
/// any rectangular locale grid. Returns the count and the accumulated
/// simulated time.
pub fn triangle_count_dist<T: Scalar>(
    a: &DistCsrMatrix<T>,
    dctx: &DistCtx,
) -> Result<(u64, gblas_sim::SimReport)> {
    let backend = DistBackend::new(dctx);
    let count = triangle_count_on(&backend, a)?;
    Ok((count, backend.take_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::container::{CooMatrix, DupPolicy};
    use gblas_core::gen;

    /// Brute-force reference: count ordered triples i > j > k with all
    /// three edges present.
    fn reference<T>(a: &CsrMatrix<T>) -> u64 {
        let n = a.nrows();
        let mut count = 0;
        for i in 0..n {
            for j in 0..i {
                if a.get(i, j).is_none() {
                    continue;
                }
                for k in 0..j {
                    if a.get(i, k).is_some() && a.get(j, k).is_some() {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn single_triangle() {
        let mut trips = Vec::new();
        for &(i, j) in &[(0, 1), (1, 2), (0, 2)] {
            trips.push((i, j, 1.0));
            trips.push((j, i, 1.0));
        }
        let a = CsrMatrix::from_triplets(3, 3, &trips).unwrap();
        let ctx = ExecCtx::serial();
        assert_eq!(triangle_count(&a, &ctx).unwrap(), 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let mut trips = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    trips.push((i, j, 1.0));
                }
            }
        }
        let a = CsrMatrix::from_triplets(4, 4, &trips).unwrap();
        let ctx = ExecCtx::with_threads(2);
        assert_eq!(triangle_count(&a, &ctx).unwrap(), 4);
    }

    #[test]
    fn triangle_free_graph() {
        // a 6-cycle has no triangles
        let n = 6;
        let mut trips = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            trips.push((i, j, 1.0));
            trips.push((j, i, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &trips).unwrap();
        let ctx = ExecCtx::serial();
        assert_eq!(triangle_count(&a, &ctx).unwrap(), 0);
    }

    /// `A + Aᵀ` without self-loops, as the CLI's `--symmetrize` builds it:
    /// an unpermuted RMAT keeps its hubs at the lowest ids.
    fn symmetric_rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrMatrix<f64> {
        let a = gen::rmat(scale, edge_factor, seed);
        let mut coo = CooMatrix::new(a.nrows(), a.ncols());
        for (i, j, &v) in a.iter().filter(|&(i, j, _)| i != j) {
            coo.push(i, j, v).unwrap();
            coo.push(j, i, v).unwrap();
        }
        coo.to_csr(DupPolicy::KeepLast).unwrap()
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in [1, 2, 3] {
            let a = gen::erdos_renyi_symmetric(60, 6, seed);
            let ctx = ExecCtx::with_threads(2);
            assert_eq!(triangle_count(&a, &ctx).unwrap(), reference(&a), "seed {seed}");
        }
        let a = symmetric_rmat(8, 8, 1);
        let ctx = ExecCtx::with_threads(2);
        assert_eq!(triangle_count(&a, &ctx).unwrap(), reference(&a), "rmat(8, 8)");
    }

    /// The multiply lists each wedge at its middle vertex: one product per
    /// `(i, k, j)` with `j < k < i`, `Σₖ |N⁺(k)| · |N⁻(k)|` in all. The
    /// `L · Lᵀ` form would scan `Σₖ |N⁺(k)|²`, 4.7 × as many here.
    #[test]
    fn multiply_scans_one_product_per_wedge_at_its_middle_vertex() {
        let a = symmetric_rmat(10, 8, 1);
        let ctx = ExecCtx::with_threads(2);
        let l = gblas_core::ops::select::tril(&a, &ctx);
        let wedges: u64 =
            (0..a.nrows()).map(|k| ((a.row_nnz(k) - l.row_nnz(k)) * l.row_nnz(k)) as u64).sum();
        triangle_count(&a, &ctx).unwrap();
        assert_eq!(ctx.take_profile().phase(gblas_core::ops::mxm::PHASE).flops, wedges);
    }

    #[test]
    fn distributed_matches_shared_on_square_grids() {
        let a = gen::erdos_renyi_symmetric(120, 6, 71);
        let ctx = ExecCtx::serial();
        let expect = triangle_count(&a, &ctx).unwrap();
        for q in [1usize, 2, 3] {
            let grid = gblas_dist::ProcGrid::new(q, q);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(gblas_sim::MachineConfig::edison_cluster(grid.locales(), 24));
            let (count, report) = triangle_count_dist(&da, &dctx).unwrap();
            assert_eq!(count, expect, "grid {q}x{q}");
            assert!(report.total() > 0.0);
        }
    }

    /// Regression: p=6 used to fail outright (the single-stage SUMMA
    /// rejected non-square grids). Rectangular grids must now run and
    /// count bit-identically to the square grids — plus-pair is an
    /// integer semiring, so no tolerance.
    #[test]
    fn distributed_runs_on_rectangular_grids_bit_identically() {
        let a = gen::erdos_renyi_symmetric(120, 6, 71);
        let ctx = ExecCtx::serial();
        let expect = triangle_count(&a, &ctx).unwrap();
        for (pr, pc) in [(2usize, 3usize), (3, 2), (1, 6), (6, 1)] {
            let grid = gblas_dist::ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(gblas_sim::MachineConfig::edison_cluster(grid.locales(), 24));
            let (count, report) = triangle_count_dist(&da, &dctx).unwrap();
            assert_eq!(count, expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }
}
