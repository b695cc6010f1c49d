//! Distributed `eWiseMult` (§III-C, Fig 5).
//!
//! The sparse and dense operands share one block distribution, so the
//! filter is communication-free: each locale filters its own block
//! (Listing 6 is a pure `coforall ... on` with local SPA-free compaction).
//! What Fig 5 shows is therefore a *burdened parallelism* story: 100M
//! nonzeros keep scaling to 32 nodes, 1M stops scaling immediately because
//! per-locale work no longer amortizes the task-spawn overhead
//! ("insufficient work for each thread", §III-C).

use crate::exec::DistCtx;
use crate::vec::{DistDenseVec, DistSparseVec};
use gblas_core::container::{DenseVec, SparseVec};
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::ops::ewise::{ewise_filter, EwiseVariant};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase name for the distributed filter.
pub const PHASE: &str = "ewisemult";

/// Distributed sparse × dense filter: keep `x[i]` where
/// `keep(x[i], y[i])`. Both operands must be distributed over the same
/// number of locales.
pub fn ewise_mult_dist<T, U>(
    x: &DistSparseVec<T>,
    y: &DistDenseVec<U>,
    keep: &(impl Fn(T, U) -> bool + Sync),
    variant: EwiseVariant,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<T>, SimReport)>
where
    T: Copy + Send + Sync + 'static,
    U: Copy + Send + Sync,
{
    let mut trace = dctx.op("ewise_mult_dist");
    check_dims("capacity", x.capacity(), y.len())?;
    if x.locales() != y.locales() {
        return Err(GblasError::DimensionMismatch {
            expected: format!("{} locales", x.locales()),
            actual: format!("{} locales", y.locales()),
        });
    }
    let (profiles, shards): (Vec<Profile>, Vec<SparseVec<T>>) = dctx
        .for_each_locale(|l| {
            let range = x.dist().range(l);
            // Rebase the shard to local coordinates so the local dense
            // segment indexes directly (Listing 6 operates on local arrays).
            let shard = x.shard(l);
            let local_inds: Vec<usize> = shard.indices().iter().map(|&i| i - range.start).collect();
            let local =
                SparseVec::from_sorted(range.len().max(1), local_inds, shard.values().to_vec())?;
            let seg = DenseVec::from_vec(y.segment(l).to_vec());
            // Guard against the degenerate empty-block case.
            let ctx = dctx.locale_ctx_for(l);
            let filtered = if range.is_empty() {
                SparseVec::new(0)
            } else {
                ewise_filter(&local, &seg, keep, variant, &ctx)?
            };
            let profile = fold_phases(ctx.take_profile());
            // Back to global coordinates.
            let (_, li, lv) = filtered.into_parts();
            let gi: Vec<usize> = li.into_iter().map(|i| i + range.start).collect();
            Ok((profile, SparseVec::from_sorted(x.capacity(), gi, lv)?))
        })?
        .into_iter()
        .unzip();
    let out = DistSparseVec::from_shards(x.capacity(), shards)?;
    trace.nnz(x.nnz() as u64);
    trace.spawn(PHASE, 1);
    trace.compute(PHASE, &profiles);
    Ok((out, trace.finish()))
}

fn fold_phases(p: Profile) -> Profile {
    let mut out = Profile::default();
    let c = out.counters_mut(PHASE);
    for (_, counters) in p.iter() {
        c.merge(counters);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    fn setup(n: usize, nnz: usize, p: usize) -> (DistSparseVec<f64>, DistDenseVec<bool>) {
        let x = gen::random_sparse_vec(n, nnz, 5);
        let y = gen::random_dense_bool(n, 0.5, 6);
        (DistSparseVec::from_global(&x, p), DistDenseVec::from_global(&y, p))
    }

    #[test]
    fn matches_shared_memory_reference_at_every_grid() {
        let n = 4000;
        let x = gen::random_sparse_vec(n, 700, 5);
        let y = gen::random_dense_bool(n, 0.5, 6);
        let ctx = gblas_core::par::ExecCtx::serial();
        let reference =
            gblas_core::ops::ewise::ewise_filter_prefix(&x, &y, &|_: f64, b| b, &ctx).unwrap();
        for p in [1, 2, 5, 8] {
            for variant in [EwiseVariant::Atomic, EwiseVariant::Prefix] {
                let (dx, dy) = setup(n, 700, p);
                let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
                let (z, _) = ewise_mult_dist(&dx, &dy, &|_: f64, b| b, variant, &dctx).unwrap();
                assert_eq!(z.to_global(), reference, "p={p} {variant:?}");
            }
        }
    }

    #[test]
    fn no_communication() {
        let (dx, dy) = setup(2000, 400, 4);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let _ = ewise_mult_dist(&dx, &dy, &|_: f64, b| b, EwiseVariant::Atomic, &dctx).unwrap();
        assert_eq!(dctx.comm.totals(), (0, 0, 0));
    }

    #[test]
    fn fig5_shape_large_scales_small_does_not() {
        // "large": 2M nonzeros (stands in for the paper's 100M);
        // "small": 20K (stands in for 1M).
        let time_at = |nnz: usize, p: usize| {
            let (dx, dy) = setup(nnz * 2, nnz, p);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (_, r) =
                ewise_mult_dist(&dx, &dy, &|_: f64, b| b, EwiseVariant::Atomic, &dctx).unwrap();
            r.total()
        };
        // Large input: more nodes help substantially.
        let large_1 = time_at(2_000_000, 1);
        let large_16 = time_at(2_000_000, 16);
        assert!(large_16 < large_1 / 4.0, "large: {large_1} -> {large_16}");
        // Small input: 64 nodes are no better than 4 (spawn dominates).
        let small_4 = time_at(20_000, 4);
        let small_64 = time_at(20_000, 64);
        assert!(small_64 > small_4 * 0.8, "small: {small_4} -> {small_64}");
    }

    #[test]
    fn locale_mismatch_is_error() {
        let (dx, _) = setup(100, 10, 2);
        let (_, dy) = setup(100, 10, 4);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assert!(ewise_mult_dist(&dx, &dy, &|_: f64, b| b, EwiseVariant::Atomic, &dctx).is_err());
    }
}
