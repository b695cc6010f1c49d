//! Markov clustering (MCL) — the mxm-heavy workload.
//!
//! Van Dongen's Markov Cluster algorithm alternates *expansion* (squaring
//! the column-stochastic transition matrix — one SpGEMM per iteration)
//! and *inflation* (entry-wise powering followed by pruning and
//! re-normalization) until the flow matrix reaches its doubly-idempotent
//! fixed point; the surviving "attractor" rows label the clusters. It is
//! the canonical SpGEMM-bound analytic: virtually all the time goes into
//! `M ← M ⊗ M` over `(+, ×)`, which is exactly the workload the
//! hypersparse multi-stage SUMMA in `gblas_dist::ops::mxm` targets.
//!
//! Written once as [`markov_cluster_on`], generic over [`GblasBackend`],
//! and in **one orientation**: the driver iterates `T = Mᵀ`, which is
//! row-stochastic, so every column statistic of `M` the algorithm reads is
//! a `reduce_rows` of `T` and the only transpose is the one at entry.
//! Expansion, inflation and pruning are a single `mxm_masked` whose *emit
//! rule* inflates each finished entry and drops it when it falls below the
//! threshold — the expanded matrix, most of which is pruned, is never
//! stored, sorted or walked again. Normalization is `reduce_rows` +
//! `mat_map` by row; the per-iteration global convergence decision is
//! priced through [`GblasBackend::allreduce_scalar`].
//!
//! **Same bits as the column-oriented chain.** `(T·T)[j,i]` folds
//! `T[j,k]·T[k,i] = M[k,j]·M[i,k]` in ascending `k` — the products
//! `(M·M)[i,j]` folds, in the same order, with the (commutative) factors
//! swapped; and a row of `T` sums in ascending column order, the order in
//! which `reduce_rows(transpose(M))` summed a column of `M`. So on shared
//! memory every flow value, hence every label and the iteration count, is
//! what the unfused chain — multiply, `powf` map, threshold select, two
//! transposes per iteration — computed; across distributed grids only
//! the association of per-block partial sums differs, as it always has.
//!
//! **The guard in the rule.** An entry survives iff `v.powf(r) ≥ thresh`.
//! For `r ≥ 1` every `|v| < lo = thresh^(1/r)·(1 − 10⁻⁹)` inflates to at
//! most `thresh·(1 − 10⁻⁹)^r`, a margin six orders of magnitude wider than
//! the sub-ulp error of `powf`, so the rule drops those without calling
//! `powf` at all; everything else is inflated and compared exactly as
//! before. The guard decides nothing the comparison would not.

use gblas_core::algebra::{semirings, Max, Plus};
use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::CsrMatrix;
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::par::ExecCtx;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tunables for [`markov_cluster`].
#[derive(Debug, Clone, Copy)]
pub struct MclOptions {
    /// Inflation exponent `r` (granularity knob; 2.0 is the classic value).
    /// Must be finite and positive.
    pub inflation: f64,
    /// Entries below this are pruned after each inflation. Must not be
    /// negative.
    pub prune_threshold: f64,
    /// Convergence: stop when the column chaos (max − Σ squares) falls
    /// below this. Must not be negative.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for MclOptions {
    fn default() -> Self {
        MclOptions { inflation: 2.0, prune_threshold: 1e-4, tolerance: 1e-6, max_iterations: 60 }
    }
}

/// Reject the options no clustering is defined under: an inflation that is
/// not a finite positive power, and a negative prune threshold or
/// tolerance, NaN included in each — a NaN tolerance would otherwise spin
/// to the iteration cap, a NaN threshold prune every entry.
fn check_options(opts: &MclOptions) -> Result<()> {
    let MclOptions { inflation, prune_threshold, tolerance, .. } = *opts;
    if !(inflation.is_finite() && inflation > 0.0) {
        return Err(GblasError::InvalidArgument(format!(
            "inflation {inflation} is not finite and positive"
        )));
    }
    for (name, value) in [("prune threshold", prune_threshold), ("tolerance", tolerance)] {
        if value.is_nan() || value < 0.0 {
            return Err(GblasError::InvalidArgument(format!("{name} {value} is negative")));
        }
    }
    Ok(())
}

/// Row-normalize `t`: `T[i,j] ← T[i,j] / Σⱼ T[i,j]`.
fn normalize_rows<B: GblasBackend>(backend: &B, t: &B::Matrix<f64>) -> Result<B::Matrix<f64>> {
    let rowsum: Vec<f64> = backend.reduce_rows(t, &Plus)?;
    let sums = &rowsum;
    backend.mat_map(t, &|i, _, v| if sums[i] > 0.0 { v / sums[i] } else { 0.0 })
}

/// Markov clustering over any backend. `a` must already contain the
/// self-loops MCL requires (the [`markov_cluster`] wrappers add them).
///
/// Returns `(labels, iterations)`: `labels[v]` is the row index of `v`'s
/// attractor, so two vertices are in the same cluster iff their labels
/// are equal. Ties (a column whose maximum is reached by several rows)
/// resolve to the smallest row index via an order-independent atomic
/// `fetch_min`, so the labeling is deterministic on every backend,
/// executor, and grid shape.
pub fn markov_cluster_on<B: GblasBackend>(
    backend: &B,
    a: &B::Matrix<f64>,
    opts: MclOptions,
) -> Result<(Vec<usize>, usize)> {
    let n = crate::check_square(backend, a, &[])?;
    check_options(&opts)?;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    let ring = semirings::plus_times_f64();
    // Inflation sharpens strong flows, pruning drops the long tail each
    // vertex accumulated; as an emit rule both happen to an entry of the
    // expansion the moment it is finished (module docs: the guard).
    let (r, thresh) = (opts.inflation, opts.prune_threshold);
    let lo = if r >= 1.0 && thresh > 0.0 { thresh.powf(1.0 / r) * (1.0 - 1e-9) } else { 0.0 };
    let inflate_and_prune = |_: usize, _: usize, v: f64| {
        if v.abs() < lo {
            return None;
        }
        let w = v.powf(r);
        (w >= thresh).then_some(w)
    };
    // Row j of `t` is column j of the flow matrix M: vertex j's out-flow.
    let mut t = normalize_rows(backend, &backend.mat_transpose(a)?)?;
    let mut iters = 0usize;
    for iter in 1..=opts.max_iterations {
        iters = iter;
        // Expansion `(M ⊗ M)ᵀ = T ⊗ T`, the SpGEMM that dominates the
        // profile, emitting only what survives inflation and pruning.
        let kept: B::Matrix<f64> = backend.mxm_masked::<_, _, _, _, _, bool>(
            &t,
            &t,
            &ring,
            None,
            Some(&inflate_and_prune),
        )?;
        t = normalize_rows(backend, &kept)?;
        // Chaos: max over vertices of (flow max − Σ flow squares); zero
        // exactly at the doubly-idempotent fixed point. The fold over
        // vertices runs in ascending order so every backend computes the
        // identical scalar; the global agreement is one allreduce.
        let rowmax: Vec<f64> = backend.reduce_rows(&t, &Max)?;
        let sq = backend.mat_map(&t, &|_, _, v: f64| v * v)?;
        let rowsumsq: Vec<f64> = backend.reduce_rows(&sq, &Plus)?;
        let mut chaos = 0.0f64;
        for j in 0..n {
            let c = rowmax[j] - rowsumsq[j];
            if c > chaos {
                chaos = c;
            }
        }
        backend.allreduce_scalar("chaos-allreduce")?;
        if chaos < opts.tolerance {
            break;
        }
    }
    // Interpretation: vertex j belongs to the attractor holding the
    // maximum of its flow (row j of `t`). The side-effecting map visits
    // entries in whatever order the backend parallelizes, but `fetch_min`
    // makes the tie-break order-independent.
    let rowmax: Vec<f64> = backend.reduce_rows(&t, &Max)?;
    let labels: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let rm = &rowmax;
    let lab = &labels;
    let _probe: B::Matrix<f64> = backend.mat_map(&t, &|j, i, v: f64| {
        if v == rm[j] {
            lab[j].fetch_min(i, Ordering::Relaxed);
        }
        v
    })?;
    // A vertex with no flow left (all of it pruned away) stays its own
    // singleton cluster.
    Ok((
        labels
            .iter()
            .enumerate()
            .map(|(j, l)| {
                let v = l.load(Ordering::Relaxed);
                if v == usize::MAX {
                    j
                } else {
                    v
                }
            })
            .collect(),
        iters,
    ))
}

/// Ensure every vertex has a self-loop (weight 1 where absent) — the MCL
/// precondition that keeps odd-length flow alive. One pass: the diagonal
/// is merged into each sorted row where it belongs.
pub fn add_self_loops(a: &CsrMatrix<f64>) -> Result<CsrMatrix<f64>> {
    check_dims("square matrix", a.nrows(), a.ncols())?;
    let n = a.nrows();
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(a.nnz() + n);
    let mut values = Vec::with_capacity(a.nnz() + n);
    rowptr.push(0);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        let at = cols.partition_point(|&j| j < i);
        colidx.extend_from_slice(&cols[..at]);
        values.extend_from_slice(&vals[..at]);
        if cols.get(at) != Some(&i) {
            colidx.push(i);
            values.push(1.0);
        }
        colidx.extend_from_slice(&cols[at..]);
        values.extend_from_slice(&vals[at..]);
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_raw_parts(n, n, rowptr, colidx, values)
}

/// Markov clustering of the undirected graph `a` (shared memory).
/// Self-loops are added automatically. Returns `(labels, iterations)`.
pub fn markov_cluster(
    a: &CsrMatrix<f64>,
    opts: MclOptions,
    ctx: &ExecCtx,
) -> Result<(Vec<usize>, usize)> {
    let looped = add_self_loops(a)?;
    markov_cluster_on(&SharedBackend::new(ctx), &looped, opts)
}

/// Distributed Markov clustering: the same [`markov_cluster_on`] text
/// with every expansion running the multi-stage DCSC SUMMA on `grid`
/// (any `pr×pc` shape). Returns `(labels, iterations, simulated time)`.
/// Another SUMMA variant is a backend choice:
/// [`markov_cluster_on`] over `DistBackend::new(dctx).with_mxm(algo)`.
pub fn markov_cluster_dist(
    a: &CsrMatrix<f64>,
    grid: ProcGrid,
    opts: MclOptions,
    dctx: &DistCtx,
) -> Result<(Vec<usize>, usize, gblas_sim::SimReport)> {
    let looped = add_self_loops(a)?;
    let da = DistCsrMatrix::from_global(&looped, grid);
    let backend = DistBackend::new(dctx);
    let (labels, iters) = markov_cluster_on(&backend, &da, opts)?;
    Ok((labels, iters, backend.take_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;
    use gblas_dist::MxmAlgo;
    use gblas_sim::MachineConfig;

    /// Two 4-cliques joined by a single bridge edge.
    fn two_cliques() -> CsrMatrix<f64> {
        let mut trips = Vec::new();
        for block in 0..2usize {
            let base = block * 4;
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        trips.push((base + i, base + j, 1.0));
                    }
                }
            }
        }
        trips.push((3, 4, 1.0));
        trips.push((4, 3, 1.0));
        CsrMatrix::from_triplets(8, 8, &trips).unwrap()
    }

    #[test]
    fn self_loops_merge_into_sorted_rows() {
        // a diagonal already there (kept as it is), one that lands between
        // two entries, one after a row's last entry, one in an empty row
        let entries =
            [(0, 0, 5.0), (0, 2, 1.0), (1, 0, 2.0), (1, 3, 3.0), (2, 0, 4.0), (2, 1, 6.0)];
        let looped = add_self_loops(&CsrMatrix::from_triplets(4, 4, &entries).unwrap()).unwrap();
        let mut want = entries.to_vec();
        want.extend([(1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)]);
        assert_eq!(looped, CsrMatrix::from_triplets(4, 4, &want).unwrap());
        assert!(add_self_loops(&CsrMatrix::empty(3, 2)).is_err());
    }

    #[test]
    fn separates_two_cliques() {
        let a = two_cliques();
        let ctx = ExecCtx::serial();
        let (labels, iters) = markov_cluster(&a, MclOptions::default(), &ctx).unwrap();
        assert!(iters >= 2);
        for v in 1..4 {
            assert_eq!(labels[v], labels[0], "first clique must be one cluster");
        }
        for v in 5..8 {
            assert_eq!(labels[v], labels[4], "second clique must be one cluster");
        }
        assert_ne!(labels[0], labels[4], "cliques must separate");
    }

    #[test]
    fn labels_are_deterministic_across_thread_counts() {
        let a = gen::erdos_renyi_symmetric(60, 4, 913);
        let (l1, i1) = markov_cluster(&a, MclOptions::default(), &ExecCtx::serial()).unwrap();
        let (l2, i2) =
            markov_cluster(&a, MclOptions::default(), &ExecCtx::with_threads(4)).unwrap();
        assert_eq!(i1, i2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn distributed_matches_shared_on_rectangular_grids() {
        let a = two_cliques();
        let ctx = ExecCtx::serial();
        let (expect, iters_shared) = markov_cluster(&a, MclOptions::default(), &ctx).unwrap();
        for (pr, pc) in [(1usize, 1usize), (2, 2), (2, 3), (3, 2)] {
            let grid = ProcGrid::new(pr, pc);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (labels, iters, report) =
                markov_cluster_dist(&a, grid, MclOptions::default(), &dctx).unwrap();
            assert_eq!(labels, expect, "grid {pr}x{pc}");
            assert_eq!(iters, iters_shared, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn distributed_3d_matches_2d() {
        let a = two_cliques();
        let grid = ProcGrid::new(2, 2);
        let dctx2 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (l2, i2, _) = markov_cluster_dist(&a, grid, MclOptions::default(), &dctx2).unwrap();
        let dctx3 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let b3 = DistBackend::new(&dctx3).with_mxm(MxmAlgo::Summa3d { layers: 2 });
        let da = DistCsrMatrix::from_global(&add_self_loops(&a).unwrap(), grid);
        let (l3, i3) = markov_cluster_on(&b3, &da, MclOptions::default()).unwrap();
        assert_eq!(l2, l3);
        assert_eq!(i2, i3);
        assert!(b3.take_report().total() > 0.0);
    }

    #[test]
    fn empty_graph() {
        let a = CsrMatrix::<f64>::empty(0, 0);
        let ctx = ExecCtx::serial();
        let (labels, iters) = markov_cluster(&a, MclOptions::default(), &ctx).unwrap();
        assert!(labels.is_empty());
        assert_eq!(iters, 0);
    }
}
