//! Distributed `Assign` (§III-B, Figs 2, 3 and 10).

use crate::exec::DistCtx;
use crate::vec::DistSparseVec;
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase name for both versions.
pub const PHASE: &str = "assign";

fn check_conformant<T>(a: &DistSparseVec<T>, b: &DistSparseVec<T>) -> Result<()>
where
    T: Copy,
{
    check_dims("capacity", a.capacity(), b.capacity())?;
    if a.locales() != b.locales() {
        return Err(GblasError::DimensionMismatch {
            expected: format!("{} locales", a.locales()),
            actual: format!("{} locales", b.locales()),
        });
    }
    Ok(())
}

/// Listing 4 (`Assign1`): iterate the destination domain from the
/// initiating locale and copy element-by-element. Every access to a
/// remote element is a fine-grained GET/PUT, and every indexed access —
/// local or remote — pays the `O(log nnz)` search of §III-B.
pub fn assign_v1<T: Copy + Send + Sync + Default + 'static>(
    a: &mut DistSparseVec<T>,
    b: &DistSparseVec<T>,
    dctx: &DistCtx,
) -> Result<SimReport> {
    let mut trace = dctx.op("assign_v1");
    check_conformant(a, b)?;
    let p = b.locales();
    let elem_bytes = std::mem::size_of::<T>() as u64;
    // Domain rebuild (DA.clear(); DA += DB): the initiating locale walks
    // every remote domain's iterator — a dependent chain — and writes
    // every remote domain entry.
    for l in 1..p {
        let nnz = b.shard(l).nnz() as u64;
        dctx.comm.fine_dependent(PHASE, 0, l, 2 * nnz, 2 * nnz * 8)?;
    }
    // Value copy (forall i in DA do A[i] = B[i]): one remote GET of B[i]
    // and one remote PUT of A[i] per remote element...
    for l in 1..p {
        let nnz = b.shard(l).nnz() as u64;
        dctx.comm.fine(PHASE, 0, l, 2 * nnz, 2 * nnz * elem_bytes)?;
    }
    // ...while the searches are *simulated* on the initiating locale's
    // threads: the per-shard profiles are merged in locale order into one
    // locale-0 profile, identical to a single shared context.
    let per_shard = dctx.for_each_locale_state(a.shards_mut(), |l, shard| {
        let ctx = dctx.locale_ctx_for(l);
        gblas_core::ops::assign::assign_v1(shard, b.shard(l), &ctx)?;
        Ok(ctx.take_profile())
    })?;
    let mut merged = Profile::default();
    for sp in &per_shard {
        for (name, c) in sp.iter() {
            merged.counters_mut(name).merge(c);
        }
    }
    let profile = fold_assign_phases(merged);
    trace.nnz(b.nnz() as u64);
    trace.compute(PHASE, &[profile]);
    Ok(trace.finish())
}

/// Listing 5 (`Assign2`): `coforall` per locale, bulk-copying the local
/// domain and value arrays. No communication.
pub fn assign_v2<T: Copy + Send + Sync + Default>(
    a: &mut DistSparseVec<T>,
    b: &DistSparseVec<T>,
    dctx: &DistCtx,
) -> Result<SimReport> {
    let mut trace = dctx.op("assign_v2");
    check_conformant(a, b)?;
    let profiles = dctx.for_each_locale_state(a.shards_mut(), |l, shard| {
        let ctx = dctx.locale_ctx_for(l);
        gblas_core::ops::assign::assign_v2(shard, b.shard(l), &ctx)?;
        Ok(fold_assign_phases(ctx.take_profile()))
    })?;
    trace.nnz(b.nnz() as u64);
    trace.spawn(PHASE, 1);
    trace.compute(PHASE, &profiles);
    Ok(trace.finish())
}

/// Fold the core op's `assign-domain`/`assign-values` phases into the
/// figure's single "assign" component.
fn fold_assign_phases(p: Profile) -> Profile {
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

    fn setup(nnz: usize, p: usize) -> (DistSparseVec<f64>, DistSparseVec<f64>) {
        let b = gen::random_sparse_vec(nnz * 4, nnz, 7);
        let a = DistSparseVec::empty(nnz * 4, p);
        (a, DistSparseVec::from_global(&b, p))
    }

    #[test]
    fn both_versions_copy_exactly() {
        for p in [1, 2, 6, 9] {
            let (mut a1, b) = setup(400, p);
            let mut a2 = a1.clone();
            let d1 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            assign_v1(&mut a1, &b, &d1).unwrap();
            let d2 = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            assign_v2(&mut a2, &b, &d2).unwrap();
            assert_eq!(a1, b, "v1 p={p}");
            assert_eq!(a2, b, "v2 p={p}");
        }
    }

    #[test]
    fn v1_pays_comm_and_searches_v2_neither() {
        let (mut a, b) = setup(2000, 4);
        let d1 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assign_v1(&mut a, &b, &d1).unwrap();
        assert!(d1.comm.totals().0 > 0);

        let (a2, b2) = setup(2000, 4);
        let _ = a2;
        let mut a2 = DistSparseVec::empty(b2.capacity(), 4);
        let d2 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assign_v2(&mut a2, &b2, &d2).unwrap();
        assert_eq!(d2.comm.totals().0, 0);
    }

    #[test]
    fn fig2_shape_v1_collapses_v2_scales() {
        // nnz = 1M equivalent, scaled to 50k for test speed; the *ratio*
        // is scale-free.
        let (mut a1, b) = setup(50_000, 16);
        let d1 = DistCtx::new(MachineConfig::edison_cluster(16, 24));
        let r1 = assign_v1(&mut a1, &b, &d1).unwrap();
        let mut a2 = DistSparseVec::empty(b.capacity(), 16);
        let d2 = DistCtx::new(MachineConfig::edison_cluster(16, 24));
        let r2 = assign_v2(&mut a2, &b, &d2).unwrap();
        assert!(
            r1.total() > 20.0 * r2.total(),
            "Fig 2 right: Assign1 {} vs Assign2 {}",
            r1.total(),
            r2.total()
        );
    }

    #[test]
    fn fig10_shape_colocation_degrades_both() {
        // 10K nonzeros, locales colocated on one node, 1 thread each.
        let mut last_v1 = 0.0;
        let mut last_v2 = 0.0;
        let mut first_v1 = 0.0;
        let mut first_v2 = 0.0;
        for (i, locales) in [1usize, 8, 32].iter().enumerate() {
            let (mut a1, b) = setup(10_000, *locales);
            let d1 = DistCtx::new(MachineConfig::edison_colocated(*locales));
            let r1 = assign_v1(&mut a1, &b, &d1).unwrap();
            let mut a2 = DistSparseVec::empty(b.capacity(), *locales);
            let d2 = DistCtx::new(MachineConfig::edison_colocated(*locales));
            let r2 = assign_v2(&mut a2, &b, &d2).unwrap();
            if i == 0 {
                first_v1 = r1.total();
                first_v2 = r2.total();
            }
            last_v1 = r1.total();
            last_v2 = r2.total();
        }
        assert!(last_v1 > 5.0 * first_v1, "Assign1 colocation: {first_v1} -> {last_v1}");
        assert!(last_v2 > 2.0 * first_v2, "Assign2 colocation: {first_v2} -> {last_v2}");
        assert!(last_v1 > last_v2, "Assign1 stays the slower one");
    }

    #[test]
    fn mismatched_locale_counts_error() {
        let b = gen::random_sparse_vec(100, 10, 1);
        let bd = DistSparseVec::from_global(&b, 4);
        let mut a = DistSparseVec::empty(100, 2);
        let d = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assert!(assign_v1(&mut a, &bd, &d).is_err());
        assert!(assign_v2(&mut a, &bd, &d).is_err());
    }

    #[test]
    fn injected_comm_fault_propagates() {
        let (mut a, b) = setup(1000, 4);
        let d = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        d.comm.fail_after(1);
        let err = assign_v1(&mut a, &b, &d).unwrap_err();
        assert!(matches!(err, GblasError::CommFailure(_)));
    }
}
