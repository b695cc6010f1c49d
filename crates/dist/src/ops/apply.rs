//! Distributed `Apply` (§III-A, Fig 1 right).

use crate::exec::DistCtx;
use crate::vec::DistSparseVec;
use gblas_core::algebra::UnaryOp;
use gblas_core::error::Result;
use gblas_core::ops::apply::apply_vec_inplace;
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase name for both versions.
pub const PHASE: &str = "apply";

/// Listing 2 (`Apply1`): a flat `forall` over the block-distributed sparse
/// array. The locality optimization "is not implemented for sparse arrays
/// yet", so every iteration executes on the initiating locale and each
/// remote element costs a fine-grained GET + PUT — which is why Fig 1
/// (right) shows Apply1 2–4 orders of magnitude slower than Apply2.
pub fn apply_v1<T: Copy + Send + Sync>(
    x: &mut DistSparseVec<T>,
    op: &impl UnaryOp<T, T>,
    dctx: &DistCtx,
) -> Result<SimReport> {
    let mut trace = dctx.op("apply_v1");
    let p = x.locales();
    // Communication: elements on locales other than the initiating locale
    // (locale 0) are accessed remotely, one element at a time, read +
    // write.
    let elem_bytes = std::mem::size_of::<T>() as u64;
    for l in 1..p {
        let nnz = x.shard(l).nnz() as u64;
        dctx.comm.fine(PHASE, 0, l, 2 * nnz, 2 * nnz * elem_bytes)?;
    }
    // Compute: simulated on locale 0's threads (the flat `forall` runs
    // entirely on the initiating locale). The wall-clock execution still
    // fans out one task per shard; merging the per-shard profiles in
    // locale order reproduces the single shared profile exactly.
    let per_shard = dctx.for_each_locale_state(x.shards_mut(), |l, shard| {
        let ctx = dctx.locale_ctx_for(l);
        apply_vec_inplace(shard, op, &ctx);
        Ok(ctx.take_profile())
    })?;
    let mut profile = Profile::default();
    for sp in &per_shard {
        for (name, c) in sp.iter() {
            profile.counters_mut(name).merge(c);
        }
    }
    trace.nnz(x.nnz() as u64);
    trace.compute_as(PHASE, gblas_core::ops::apply::PHASE, &[profile]);
    Ok(trace.finish())
}

/// Listing 3 (`Apply2`): `coforall` one task per locale, each updating
/// only its local block — no communication, near-perfect scaling.
pub fn apply_v2<T: Copy + Send + Sync>(
    x: &mut DistSparseVec<T>,
    op: &impl UnaryOp<T, T>,
    dctx: &DistCtx,
) -> Result<SimReport> {
    let mut trace = dctx.op("apply_v2");
    let profiles = dctx.for_each_locale_state(x.shards_mut(), |l, shard| {
        let ctx = dctx.locale_ctx_for(l);
        apply_vec_inplace(shard, op, &ctx);
        Ok(ctx.take_profile())
    })?;
    trace.nnz(x.nnz() as u64);
    trace.spawn(PHASE, 1);
    trace.compute_as(PHASE, gblas_core::ops::apply::PHASE, &profiles);
    Ok(trace.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    fn dist_pair(nnz: usize, p: usize) -> (DistSparseVec<f64>, DistSparseVec<f64>) {
        let v = gen::random_sparse_vec(nnz * 2, nnz, 123);
        (DistSparseVec::from_global(&v, p), DistSparseVec::from_global(&v, p))
    }

    #[test]
    fn both_versions_compute_the_same_result() {
        for p in [1, 2, 4, 8] {
            let (mut a, mut b) = dist_pair(500, p);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            apply_v1(&mut a, &|v: f64| v + 1.0, &dctx).unwrap();
            let dctx2 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            apply_v2(&mut b, &|v: f64| v + 1.0, &dctx2).unwrap();
            assert_eq!(a, b, "p={p}");
            // and matches the serial reference
            let mut reference = gen::random_sparse_vec(1000, 500, 123);
            gblas_core::ops::apply::apply_vec_inplace(
                &mut reference,
                &|v: f64| v + 1.0,
                &gblas_core::par::ExecCtx::serial(),
            );
            assert_eq!(a.to_global(), reference);
        }
    }

    #[test]
    fn v1_logs_fine_grained_comm_v2_none() {
        let (mut a, mut b) = dist_pair(1000, 4);
        let d1 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        apply_v1(&mut a, &|v: f64| v, &d1).unwrap();
        let (fine, bulk, _) = d1.comm.totals();
        assert!(fine > 0, "Apply1 must communicate");
        assert_eq!(bulk, 0);

        let d2 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        apply_v2(&mut b, &|v: f64| v, &d2).unwrap();
        assert_eq!(d2.comm.totals().0, 0, "Apply2 must not communicate");
    }

    #[test]
    fn v1_much_slower_than_v2_beyond_one_node() {
        let (mut a, mut b) = dist_pair(100_000, 8);
        let d1 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let r1 = apply_v1(&mut a, &|v: f64| v * 2.0, &d1).unwrap();
        let d2 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let r2 = apply_v2(&mut b, &|v: f64| v * 2.0, &d2).unwrap();
        assert!(
            r1.total() > 50.0 * r2.total(),
            "Fig 1 right: Apply1 {} should dwarf Apply2 {}",
            r1.total(),
            r2.total()
        );
    }

    #[test]
    fn single_locale_versions_tie() {
        let (mut a, mut b) = dist_pair(10_000, 1);
        let d1 = DistCtx::new(MachineConfig::edison_cluster(1, 24));
        let r1 = apply_v1(&mut a, &|v: f64| v, &d1).unwrap();
        let d2 = DistCtx::new(MachineConfig::edison_cluster(1, 24));
        let r2 = apply_v2(&mut b, &|v: f64| v, &d2).unwrap();
        // within spawn-overhead of each other
        assert!((r1.total() - r2.total()).abs() < 1e-3);
    }

    #[test]
    fn v2_scales_down_with_nodes() {
        // The paper's Fig 1 uses 10M nonzeros; build the vector cheaply
        // (even indices) instead of sampling.
        let nnz = 10_000_000;
        let global = gblas_core::container::SparseVec::from_sorted(
            nnz * 2,
            (0..nnz).map(|i| i * 2).collect(),
            vec![1.0f64; nnz],
        )
        .unwrap();
        let mut prev = f64::INFINITY;
        for p in [1usize, 4, 16, 64] {
            let mut a = DistSparseVec::from_global(&global, p);
            let d = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let r = apply_v2(&mut a, &|v: f64| v, &d).unwrap();
            assert!(r.total() < prev, "p={p}: {} !< {prev}", r.total());
            prev = r.total();
        }
    }
}
