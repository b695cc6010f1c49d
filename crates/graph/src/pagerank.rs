//! PageRank by power iteration, matrix-free: one pattern-only
//! `(+, first)` SpMV over `A` itself per iteration.
//!
//! One implementation, [`pagerank_on`], generic over [`GblasBackend`].
//! The row-stochastic `W[i,j] = 1/outdeg(i)` is constant along a row, so
//! it is never built: out-degrees come from the structure
//! ([`GblasBackend::mat_row_degrees`]), the driver keeps the rank vector
//! pre-scaled (`x[i] = pr[i] · 1/outdeg(i)`, the very product `x ⊗ W`
//! formed entry by entry), and the SpMV sums `x` over `A`'s pattern
//! without loading a matrix value. Between two SpMVs one fused dense
//! pass ([`power_step`]) does all the driver-side work; the two global
//! scalar decisions per iteration (dangling mass, convergence) are priced
//! through [`GblasBackend::allreduce_scalar`].

use gblas_core::algebra::{semirings, Scalar};
use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::{CsrMatrix, DenseVec};
use gblas_core::error::{GblasError, Result};
use gblas_core::par::ExecCtx;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};

/// Tunables for [`pagerank`].
#[derive(Debug, Clone, Copy)]
pub struct PageRankOptions {
    /// Damping factor (0.85 is the classic value).
    pub damping: f64,
    /// Stop when the L1 change between iterations falls below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions { damping: 0.85, tolerance: 1e-9, max_iterations: 200 }
    }
}

/// Reject the parameters a power iteration cannot converge under: a
/// damping factor outside `[0, 1]` and a negative tolerance, NaN included
/// in both — each would otherwise spin to the iteration cap on NaN ranks.
pub(crate) fn check_power_options(damping: f64, tolerance: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&damping) {
        return Err(GblasError::InvalidArgument(format!("damping {damping} is outside [0, 1]")));
    }
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err(GblasError::InvalidArgument(format!("tolerance {tolerance} is negative")));
    }
    Ok(())
}

/// `1/outdeg(i)` per vertex from the matrix structure, and `0.0` — never
/// `∞` — for a dangling vertex (no out-edge), which is how the drivers
/// tell the two apart. A dangling vertex's pre-scaled rank is never read
/// by the SpMV (its row is empty), so the zero only marks it.
pub(crate) fn inverse_out_degrees<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
) -> Result<Vec<f64>> {
    let degrees = backend.mat_row_degrees(a)?;
    Ok(degrees.into_iter().map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 }).collect())
}

/// The driver-side work between two SpMVs, fused into one ascending pass.
/// On entry `spread` is the SpMV output; per vertex the pass forms the new
/// rank `r = rank(v, spread[v])`, adds `|r − pr[v]|` to the L1 change and
/// `r` to the dangling mass when `v` is dangling, stores `r` over `pr[v]`
/// and the next pre-scaled operand `r · inv_outdeg[v]` over `spread[v]` —
/// so the SpMV's output buffer is the next SpMV's input and nothing is
/// allocated. Returns `(L1 change, dangling mass of the new ranks)`, both
/// folded in ascending vertex order on every backend.
pub(crate) fn power_step(
    pr: &mut [f64],
    spread: &mut [f64],
    inv_outdeg: &[f64],
    rank: impl Fn(usize, f64) -> f64,
) -> (f64, f64) {
    let (mut diff, mut dangling) = (0.0, 0.0);
    for (v, ((p, x), &w)) in pr.iter_mut().zip(spread.iter_mut()).zip(inv_outdeg).enumerate() {
        let r = rank(v, *x);
        diff += (r - *p).abs();
        // adding 0.0 leaves the sum's bits alone: the fold is the sum
        // over dangling vertices only, without a branch per vertex
        dangling += if w == 0.0 { r } else { 0.0 };
        *p = r;
        *x = r * w;
    }
    (diff, dangling)
}

/// Power iteration over any backend. Ranks are driver-side control state;
/// their pre-scaled copy is imported into the backend layout once per
/// iteration for the SpMV, and the dangling-mass and convergence sums run
/// in ascending vertex order so every backend produces the same
/// floating-point fold.
pub fn pagerank_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    opts: PageRankOptions,
) -> Result<(DenseVec<f64>, usize)> {
    pagerank_observed(backend, a, opts, |_| {})
}

/// [`pagerank_on`] reporting its progress to `observe`: called with `0`
/// once the set-up is done and with `iter` after each power step. This is
/// how a harness samples per-iteration cost (the allocation benchmark)
/// from the loop the library runs instead of a copy of it.
pub fn pagerank_observed<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    opts: PageRankOptions,
    mut observe: impl FnMut(usize),
) -> Result<(DenseVec<f64>, usize)> {
    let n = crate::check_square(backend, a, &[])?;
    check_power_options(opts.damping, opts.tolerance)?;
    if n == 0 {
        return Ok((DenseVec::from_vec(Vec::new()), 0));
    }
    let inv_outdeg = inverse_out_degrees(backend, a)?;
    let ring = semirings::plus_first();
    let base = (1.0 - opts.damping) / n as f64;
    let mut pr = vec![1.0 / n as f64; n];
    let mut x = pr.clone();
    // The uniform start through the same pass: `x` becomes `pr · inv_outdeg`.
    let (_, mut dangling) = power_step(&mut pr, &mut x, &inv_outdeg, |_, uniform| uniform);
    observe(0);
    for iter in 1..=opts.max_iterations {
        // Dangling vertices redistribute their mass uniformly.
        backend.allreduce_scalar("dangling-allreduce")?;
        let spread: Vec<B::DenseVec<f64>> = backend.spmv(a, &[backend.dense_from_vec(x)], &ring)?;
        x = backend.dense_to_vec(crate::only(spread)?);
        let teleport = dangling / n as f64;
        let rank = |_, spread: f64| base + opts.damping * (spread + teleport);
        let (diff, next_dangling) = power_step(&mut pr, &mut x, &inv_outdeg, rank);
        dangling = next_dangling;
        backend.allreduce_scalar("diff-allreduce")?;
        observe(iter);
        if diff < opts.tolerance {
            return Ok((DenseVec::from_vec(pr), iter));
        }
    }
    Ok((DenseVec::from_vec(pr), opts.max_iterations))
}

/// PageRank of the directed graph `a` (edge `i -> j` stored at `A[i,j]`).
/// Returns `(ranks, iterations)`; ranks sum to 1.
pub fn pagerank<T: Scalar>(
    a: &CsrMatrix<T>,
    opts: PageRankOptions,
    ctx: &ExecCtx,
) -> Result<(DenseVec<f64>, usize)> {
    pagerank_on(&SharedBackend::new(ctx), a, opts)
}

/// Distributed PageRank: the same [`pagerank_on`] text on the 2-D grid
/// with bulk-only communication — one `spmv_dist` per iteration plus two
/// all-reduce-style scalar combines (dangling mass, convergence check),
/// each priced as a binomial tree of small bulk messages.
///
/// Returns `(ranks, iterations, simulated time)`.
pub fn pagerank_dist(
    a: &CsrMatrix<f64>,
    grid: ProcGrid,
    opts: PageRankOptions,
    dctx: &DistCtx,
) -> Result<(DenseVec<f64>, usize, gblas_sim::SimReport)> {
    let da = DistCsrMatrix::from_global(a, grid);
    pagerank_dist_on(&da, opts, dctx)
}

/// Distributed PageRank over an already-distributed matrix.
pub fn pagerank_dist_on<T: Scalar>(
    a: &DistCsrMatrix<T>,
    opts: PageRankOptions,
    dctx: &DistCtx,
) -> Result<(DenseVec<f64>, usize, gblas_sim::SimReport)> {
    let backend = DistBackend::new(dctx);
    let (pr, iters) = pagerank_on(&backend, a, opts)?;
    Ok((pr, iters, backend.take_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;

    #[test]
    fn ranks_sum_to_one() {
        let a = gen::erdos_renyi(300, 6, 31);
        let ctx = ExecCtx::with_threads(2);
        let (pr, iters) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
        let sum: f64 = pr.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        assert!(iters > 1);
        assert!(pr.as_slice().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn star_graph_centre_dominates() {
        // Edges: every leaf points to the centre (vertex 0).
        let trips: Vec<(usize, usize, f64)> = (1..10).map(|i| (i, 0, 1.0)).collect();
        let a = CsrMatrix::from_triplets(10, 10, &trips).unwrap();
        let ctx = ExecCtx::serial();
        let (pr, _) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
        for i in 1..10 {
            assert!(pr[0] > 3.0 * pr[i], "centre must dominate leaf {i}");
        }
    }

    #[test]
    fn cycle_graph_is_uniform() {
        let n = 8;
        let trips: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let a = CsrMatrix::from_triplets(n, n, &trips).unwrap();
        let ctx = ExecCtx::serial();
        let (pr, _) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
        for v in 0..n {
            assert!((pr[v] - 1.0 / n as f64).abs() < 1e-8);
        }
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // 0 -> 1, 1 has no out-edges.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        let ctx = ExecCtx::serial();
        let (pr, _) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
        let sum: f64 = pr.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(pr[1] > pr[0]);
    }

    #[test]
    fn inverse_out_degrees_are_zero_not_infinite_on_dangling_rows() {
        // degrees 2, 0, 1, 0 — values (NaN here) are never read
        let trips = [(0, 1, f64::NAN), (0, 3, f64::NAN), (2, 0, f64::NAN)];
        let a = CsrMatrix::from_triplets(4, 4, &trips).unwrap();
        let ctx = ExecCtx::serial();
        let inv = inverse_out_degrees(&SharedBackend::new(&ctx), &a).unwrap();
        assert_eq!(inv, [0.5, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn power_step_fuses_rank_change_dangling_mass_and_next_operand() {
        let inv = [0.5, 0.0, 1.0, 0.0];
        let mut pr = [0.1, 0.2, 0.3, 0.4];
        let mut spread = [1.0, 2.0, 3.0, 4.0];
        let (diff, dangling) = power_step(&mut pr, &mut spread, &inv, |v, s| s / 10.0 + v as f64);
        assert_eq!(pr, [0.1, 1.2, 2.3, 3.4]); // the new ranks, in place
        assert_eq!(spread, [0.05, 0.0, 2.3, 0.0]); // pre-scaled for the next SpMV
        assert_eq!(diff, (0.0 + 1.0) + 2.0 + 3.0);
        assert_eq!(dangling, 1.2 + 3.4); // vertices 1 and 3 only
    }

    #[test]
    fn observer_sees_the_set_up_and_every_power_step() {
        let a = gen::erdos_renyi(60, 3, 35);
        let ctx = ExecCtx::serial();
        let mut seen = Vec::new();
        let opts = PageRankOptions { tolerance: 0.0, max_iterations: 4, ..Default::default() };
        let observed =
            pagerank_observed(&SharedBackend::new(&ctx), &a, opts, |i| seen.push(i)).unwrap();
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(observed, pagerank(&a, opts, &ctx).unwrap());
    }

    #[test]
    fn empty_graph() {
        let a = CsrMatrix::<f64>::empty(0, 0);
        let ctx = ExecCtx::serial();
        let (pr, iters) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
        assert!(pr.is_empty());
        assert_eq!(iters, 0);
    }

    #[test]
    fn distributed_matches_shared_at_every_grid() {
        let a = gen::erdos_renyi(250, 6, 33);
        let ctx = ExecCtx::serial();
        let opts = PageRankOptions { tolerance: 1e-12, ..Default::default() };
        let (expect, iters_shared) = pagerank(&a, opts, &ctx).unwrap();
        for (pr_grid, pc_grid) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr_grid, pc_grid);
            let dctx = DistCtx::new(gblas_sim::MachineConfig::edison_cluster(grid.locales(), 24));
            let (ranks, iters, report) = pagerank_dist(&a, grid, opts, &dctx).unwrap();
            assert_eq!(iters, iters_shared, "grid {pr_grid}x{pc_grid}");
            for v in 0..250 {
                assert!((ranks[v] - expect[v]).abs() < 1e-9, "grid {pr_grid}x{pc_grid} vertex {v}");
            }
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn distributed_pagerank_is_all_bulk() {
        let a = gen::erdos_renyi(200, 5, 34);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(gblas_sim::MachineConfig::edison_cluster(4, 24));
        let _ = pagerank_dist(&a, grid, PageRankOptions::default(), &dctx).unwrap();
        let (fine, bulk, _) = dctx.comm.totals();
        assert_eq!(fine, 0, "distributed PageRank must use only bulk messages");
        assert!(bulk > 0);
    }
}
