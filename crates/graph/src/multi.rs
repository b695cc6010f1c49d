//! Batched multi-source analytics: k queries per push.
//!
//! The CombBLAS 2.0 serving pattern: when a query stream asks for BFS /
//! SSSP / personalized PageRank from many sources, running them one at a
//! time pays the per-level (or per-iteration) latency k times. Holding
//! the k frontiers side by side — a `Vec` of the backend's sparse vectors,
//! the conceptual `n×k` frontier matrix — turns every traversal level into
//! **one** call of the backend's push over all k sources. In distributed
//! memory that is one fused bulk message per locale pair instead of k
//! (see `gblas_dist::ops::spmspv`), which is why [`bfs_multi_dist`] builds
//! a `CommStrategy::Bulk` backend.
//!
//! BFS and SSSP have no batched driver of their own: [`crate::bfs::bfs_on`]
//! and [`crate::sssp::sssp_on`] take a slice of sources. The BFS wrappers
//! here call it at the batch width; they stay because the benchmark calls
//! them. Personalized PageRank's driver, [`ppr_multi_on`], lives here, with
//! one dense SpMV over the active seeds per iteration. Because the
//! backend's push and SpMV are bit-identical per source to a run of that
//! source alone, slot `s` of every batched result equals the single-source
//! run from `sources[s]` — the equivalence the `batched_equivalence`
//! integration suite pins on both backends. Duplicate sources are
//! independent slots.

use crate::bfs::{bfs_on, default_policy, BfsResult};
use crate::pagerank::{check_power_options, inverse_out_degrees, power_step};
use gblas_core::algebra::{semirings, Scalar};
use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::{CsrMatrix, DenseVec};
use gblas_core::error::Result;
use gblas_core::ops::selection::Direction;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx};

/// Shared-memory batched BFS: [`crate::bfs::bfs_on`] from `sources` under
/// [`crate::bfs::bfs`]'s policy, each slot choosing its own direction per
/// level over the in-neighbour lists `a` keeps — so the batch and a loop of
/// `bfs` run the same policy.
pub fn bfs_multi<T: Scalar>(
    a: &CsrMatrix<T>,
    sources: &[usize],
    ctx: &ExecCtx,
) -> Result<Vec<BfsResult>> {
    let policy = default_policy(a);
    Ok(slots(bfs_on(&SharedBackend::new(ctx), a, sources, policy, SpMSpVOpts::default())?))
}

/// Distributed batched BFS: one fused gather/scatter per level for the
/// whole batch. Returns per-source results plus the accumulated
/// simulated-time ledger.
pub fn bfs_multi_dist<T: Scalar>(
    a: &DistCsrMatrix<T>,
    sources: &[usize],
    dctx: &DistCtx,
) -> Result<(Vec<BfsResult>, gblas_sim::SimReport)> {
    let backend = DistBackend::with_strategy(dctx, CommStrategy::Bulk);
    let results = slots(bfs_on(&backend, a, sources, None, SpMSpVOpts::default())?);
    Ok((results, backend.take_report()))
}

/// The per-source results of a traversal, without its decision logs.
fn slots<R>(runs: Vec<(R, Vec<Direction>)>) -> Vec<R> {
    runs.into_iter().map(|(result, _)| result).collect()
}

/// Tunables for personalized PageRank ([`ppr_multi_on`]). Same defaults
/// as [`crate::pagerank::PageRankOptions`].
#[derive(Debug, Clone, Copy)]
pub struct PprOptions {
    /// Damping factor (0.85 is the classic value).
    pub damping: f64,
    /// Per-seed stop: L1 change between iterations below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PprOptions {
    fn default() -> Self {
        PprOptions { damping: 0.85, tolerance: 1e-9, max_iterations: 200 }
    }
}

/// Batched personalized-PageRank output.
#[derive(Debug, Clone)]
pub struct PprResult {
    /// Per-seed score vectors (each sums to 1), batch order.
    pub scores: Vec<DenseVec<f64>>,
    /// Iterations each seed ran before converging (or hitting the cap).
    pub iterations: Vec<usize>,
}

/// Batched personalized PageRank: power iteration with restart to each
/// seed, all seeds sharing one `k`-column dense SpMV per iteration. Restart *and*
/// dangling mass teleport to the seed vertex (the standard personalized
/// formulation), so mass stays conserved per seed:
///
/// `r[v] ← (1-d)·e_s[v] + d·(spread[v] + dangling·e_s[v])`
///
/// A converged seed freezes — it drops out of subsequent SpMVs — so each
/// seed's trajectory (and iteration count) is exactly its `k = 1` run.
pub fn ppr_multi_on<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    seeds: &[usize],
    opts: PprOptions,
) -> Result<PprResult> {
    let n = crate::check_square(backend, a, seeds)?;
    check_power_options(opts.damping, opts.tolerance)?;
    let k = seeds.len();
    if n == 0 || k == 0 {
        return Ok(PprResult {
            scores: seeds.iter().map(|_| DenseVec::from_vec(Vec::new())).collect(),
            iterations: vec![0; k],
        });
    }
    // Matrix-free, as in `pagerank_on`: structure-only scaling shared by
    // the whole batch, pre-scaled ranks, pattern-only SpMV over `a`.
    let inv_outdeg = inverse_out_degrees(backend, a)?;
    let ring = semirings::plus_first();
    let mut pr: Vec<Vec<f64>> = seeds
        .iter()
        .map(|&seed| {
            let mut v = vec![0.0f64; n];
            v[seed] = 1.0;
            v
        })
        .collect();
    // Per seed: the pre-scaled operand of its next SpMV column and the
    // dangling mass of its current ranks (all of it when the seed dangles).
    let mut xs: Vec<Vec<f64>> = pr.clone();
    let mut dangling: Vec<f64> = pr
        .iter_mut()
        .zip(&mut xs)
        .map(|(pr, x)| power_step(pr, x, &inv_outdeg, |_, start| start).1)
        .collect();
    let mut iterations = vec![opts.max_iterations; k];
    let mut active: Vec<usize> = (0..k).collect();
    for iter in 1..=opts.max_iterations {
        if active.is_empty() {
            break;
        }
        let columns: Vec<B::DenseVec<f64>> =
            active.iter().map(|&s| backend.dense_from_vec(std::mem::take(&mut xs[s]))).collect();
        let spreads: Vec<B::DenseVec<f64>> = backend.spmv(a, &columns, &ring)?;
        backend.allreduce_scalar("ppr-allreduce")?;
        let mut still = Vec::with_capacity(active.len());
        for (&s, spread) in active.iter().zip(spreads) {
            let (seed, mass) = (seeds[s], dangling[s]);
            xs[s] = backend.dense_to_vec(spread);
            let rank = |v, spread: f64| {
                let teleport = if v == seed { 1.0 } else { 0.0 };
                (1.0 - opts.damping) * teleport + opts.damping * (spread + mass * teleport)
            };
            let (diff, next_mass) = power_step(&mut pr[s], &mut xs[s], &inv_outdeg, rank);
            dangling[s] = next_mass;
            if diff < opts.tolerance {
                iterations[s] = iter;
            } else {
                still.push(s);
            }
        }
        active = still;
    }
    Ok(PprResult { scores: pr.into_iter().map(DenseVec::from_vec).collect(), iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::sssp::sssp_on;
    use gblas_core::gen;
    use gblas_dist::ProcGrid;
    use gblas_sim::MachineConfig;

    #[test]
    fn batched_bfs_matches_single_source_loop() {
        let a = gen::erdos_renyi(300, 5, 71);
        let ctx = ExecCtx::serial();
        let sources = [0usize, 17, 17, 250];
        let batched = bfs_multi(&a, &sources, &ctx).unwrap();
        for (s, &src) in sources.iter().enumerate() {
            let single = bfs(&a, src, &ctx).unwrap();
            assert_eq!(batched[s], single, "slot {s}");
        }
    }

    #[test]
    fn batched_sssp_matches_single_source_loop() {
        let a = gen::erdos_renyi(250, 5, 73);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let opts = SpMSpVOpts::default();
        let sources = [3usize, 99];
        let batched = sssp_on(&b, &a, &sources, None, opts).unwrap();
        for (s, &src) in sources.iter().enumerate() {
            let single = sssp_on(&b, &a, &[src], None, opts).unwrap();
            assert_eq!(batched[s], single[0], "slot {s}");
        }
    }

    #[test]
    fn ppr_scores_sum_to_one_and_localize() {
        let a = gen::erdos_renyi(200, 6, 79);
        let ctx = ExecCtx::serial();
        let r =
            ppr_multi_on(&SharedBackend::new(&ctx), &a, &[5, 120], PprOptions::default()).unwrap();
        for (scores, iters) in r.scores.iter().zip(&r.iterations) {
            let sum: f64 = scores.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
            assert!(*iters > 1);
        }
        // the seed itself should carry far more mass than average
        assert!(r.scores[0][5] > 10.0 / 200.0);
        assert!(r.scores[1][120] > 10.0 / 200.0);
    }

    #[test]
    fn ppr_batch_slot_matches_its_solo_run() {
        let a = gen::erdos_renyi(150, 5, 83);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let opts = PprOptions::default();
        let batch = ppr_multi_on(&b, &a, &[2, 60, 2], opts).unwrap();
        for (s, &seed) in [2usize, 60, 2].iter().enumerate() {
            let solo = ppr_multi_on(&b, &a, &[seed], opts).unwrap();
            assert_eq!(batch.scores[s].as_slice(), solo.scores[0].as_slice(), "slot {s}");
            assert_eq!(batch.iterations[s], solo.iterations[0], "slot {s}");
        }
    }

    #[test]
    fn dist_batched_bfs_matches_shared() {
        let a = gen::erdos_renyi(300, 5, 89);
        let sources = [1usize, 42, 200];
        let shared = bfs_multi(&a, &sources, &ExecCtx::serial()).unwrap();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
        let (dist, report) = bfs_multi_dist(&da, &sources, &dctx).unwrap();
        assert_eq!(dist, shared);
        assert!(report.total() > 0.0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let a = gen::erdos_renyi(50, 3, 97);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        assert!(bfs_multi(&a, &[], &ctx).unwrap().is_empty());
        assert!(sssp_on(&b, &a, &[], None, SpMSpVOpts::default()).unwrap().is_empty());
        let r = ppr_multi_on(&b, &a, &[], PprOptions::default()).unwrap();
        assert!(r.scores.is_empty());
    }

    #[test]
    fn out_of_range_source_is_error() {
        let a = gen::erdos_renyi(10, 2, 101);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        assert!(bfs_multi(&a, &[0, 10], &ctx).is_err());
        assert!(sssp_on(&b, &a, &[10], None, SpMSpVOpts::default()).is_err());
        assert!(ppr_multi_on(&b, &a, &[10], PprOptions::default()).is_err());
    }
}
