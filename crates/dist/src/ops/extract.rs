//! Distributed general extract: `z = x(I)` with redistribution.
//!
//! The unrestricted Assign/Extract pair is the primitive the paper flags
//! as expensive: "assign is a very powerful primitive that can require
//! O((nnz(A)+nnz(B))/√p) communication" (§III-B, citing \[8\]). Extract
//! shows the same structure: every selected element must travel from the
//! locale owning its *source* position to the locale owning its
//! *destination* position in the renumbered domain. This implementation
//! routes each element accordingly (aggregated into one bulk message per
//! locale pair — the §IV style) and reports the communication volume, so
//! the √p cost is observable in the simulated report.

use crate::exec::{DistCtx, PooledOutboxes};
use crate::sched::{fingerprint_indices, ExtractPlan, FrontierClass, PlanData};
use crate::vec::DistSparseVec;
use gblas_core::error::{GblasError, Result};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase: local selection.
pub const PHASE_SELECT: &str = "extract-select";
/// Phase: the redistribution exchange.
pub const PHASE_EXCHANGE: &str = "extract-exchange";

/// `z[k] = x[I[k]]` wherever `x` stores `I[k]`, with `z` block-distributed
/// over the same locale count. `I` must be strictly increasing.
pub fn extract_dist<T: Copy + Send + Sync + 'static>(
    x: &DistSparseVec<T>,
    index_set: &[usize],
    dctx: &DistCtx,
) -> Result<(DistSparseVec<T>, SimReport)> {
    let mut trace = dctx.op("extract_dist");
    let p = x.locales();
    if dctx.locales() != p {
        return Err(GblasError::DimensionMismatch {
            expected: format!("machine with {p} locales"),
            actual: format!("machine with {} locales", dctx.locales()),
        });
    }
    for w in index_set.windows(2) {
        if w[0] >= w[1] {
            return Err(GblasError::InvalidArgument(
                "extract index set must be strictly increasing".into(),
            ));
        }
    }
    if let Some(&last) = index_set.last() {
        if last >= x.capacity() {
            return Err(GblasError::IndexOutOfBounds { index: last, capacity: x.capacity() });
        }
    }
    let out_dist = crate::grid::BlockDist::new(index_set.len(), p);
    let elem_bytes = (std::mem::size_of::<usize>() + std::mem::size_of::<T>()) as u64;
    // ---- Inspect or replay the extract schedule: per-locale windows of
    // the index set, keyed on a full-content fingerprint of `I` (the
    // windows depend on the set, not on `x`'s values) plus the source
    // distribution shape. Repeated extracts with the same index set —
    // the per-query pattern of the serving harness — skip the binary
    // searches and bound the merge walk to each locale's window.
    let x_dist = x.dist();
    let (sched_plan, sched) = dctx.schedule(
        "extract",
        FrontierClass::Index,
        (1, p),
        x.capacity() as u64,
        fingerprint_indices(index_set),
        || PlanData::Extract(ExtractPlan::build(p, |l| x_dist.range(l), index_set)),
    );
    let plan = sched_plan.extract();
    // Superstep 1 (select): each source locale walks its shard against its
    // plan window of the index set (merge-walk, the shard and I are both
    // sorted), builds one outbox per destination, and logs its own
    // aggregated exchange messages (one bulk message per communicating
    // pair).
    let (select_profiles, outboxes): (Vec<Profile>, PooledOutboxes<(usize, T)>) = dctx
        .for_each_locale(|l| {
            let sctx = dctx.locale_ctx_for(l);
            let mut c = gblas_core::par::Counters::default();
            // outbox[dst] = (dest index, value) pairs bound for locale dst,
            // in pooled per-destination buffers reused across calls.
            let mut outbox = sctx.ws_nested_vec::<(usize, T)>(p);
            let shard = x.shard(l);
            let (si, sv) = (shard.indices(), shard.values());
            let (window_lo, window_hi) = plan.index_windows[l];
            let (mut a, mut b) = (0usize, window_lo);
            while a < si.len() && b < window_hi {
                c.elems += 1;
                match si[a].cmp(&index_set[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        let dest_pos = b; // renumbered index
                        let owner = out_dist.owner(dest_pos);
                        outbox[owner].push((dest_pos, sv[a]));
                        a += 1;
                        b += 1;
                    }
                }
            }
            for (dst, pairs) in outbox.iter().enumerate() {
                if dst != l && !pairs.is_empty() {
                    dctx.comm.bulk(PHASE_EXCHANGE, l, dst, 1, pairs.len() as u64 * elem_bytes)?;
                }
            }
            sctx.record(PHASE_SELECT, |pc| pc.merge(&c));
            Ok((sctx.take_profile(), outbox))
        })?
        .into_iter()
        .unzip();
    // Superstep 2 (apply): each destination locale concatenates its
    // inboxes in source-locale order (arrivals from different sources
    // interleave) and sorts, building only its own shard.
    let (exchange_profiles, shards): (Vec<Profile>, Vec<gblas_core::container::SparseVec<T>>) =
        dctx.for_each_locale(|o| {
            let ctx = dctx.locale_ctx_for(o);
            let mut pairs: Vec<(usize, T)> = Vec::new();
            for outbox in &outboxes {
                pairs.extend_from_slice(&outbox[o]);
            }
            pairs.sort_unstable_by_key(|(i, _)| *i);
            ctx.record(PHASE_EXCHANGE, |c| {
                c.sort_elems += pairs.len() as u64;
                c.elems += pairs.len() as u64;
            });
            let (inds, vals): (Vec<usize>, Vec<T>) = pairs.into_iter().unzip();
            let shard = gblas_core::container::SparseVec::from_sorted(index_set.len(), inds, vals)?;
            Ok((ctx.take_profile(), shard))
        })?
        .into_iter()
        .unzip();
    let z = DistSparseVec::from_shards(index_set.len(), shards)?;
    trace.sched(sched).nnz(x.nnz() as u64);
    trace.spawn(PHASE_SELECT, 1);
    trace.compute(PHASE_SELECT, &select_profiles);
    trace.compute(PHASE_EXCHANGE, &exchange_profiles);
    Ok((z, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_shared_extract_at_every_locale_count() {
        let x = gen::random_sparse_vec(2000, 350, 61);
        let index_set: Vec<usize> = (0..2000).step_by(3).collect();
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::extract::extract_vec(&x, &index_set, &ctx).unwrap();
        for p in [1usize, 2, 5, 8] {
            let dx = DistSparseVec::from_global(&x, p);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (z, report) = extract_dist(&dx, &index_set, &dctx).unwrap();
            assert_eq!(z.to_global(), expect, "p={p}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn identity_extract_is_communication_free_but_renumbering_moves_data() {
        // Selecting everything keeps each element on its owner (the block
        // partitions align), so no traffic; a strided selection renumbers
        // destinations onto different owners and must communicate.
        let x = gen::random_sparse_vec(4000, 1000, 62);
        let all: Vec<usize> = (0..4000).collect();
        // the upper half renumbers to 0..2000: owners shift wholesale
        let upper_half: Vec<usize> = (2000..4000).collect();
        let d1 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let _ = extract_dist(&DistSparseVec::from_global(&x, 8), &all, &d1).unwrap();
        assert_eq!(d1.comm.totals().2, 0, "aligned extract must not communicate");
        let d2 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let _ = extract_dist(&DistSparseVec::from_global(&x, 8), &upper_half, &d2).unwrap();
        assert!(d2.comm.totals().2 > 0, "renumbering extract must communicate");
    }

    #[test]
    fn identity_extract_round_trips() {
        let x = gen::random_sparse_vec(500, 120, 63);
        let all: Vec<usize> = (0..500).collect();
        let dx = DistSparseVec::from_global(&x, 4);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (z, _) = extract_dist(&dx, &all, &dctx).unwrap();
        assert_eq!(z.to_global(), x);
    }

    #[test]
    fn validates_input() {
        let x = gen::random_sparse_vec(100, 10, 64);
        let dx = DistSparseVec::from_global(&x, 4);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assert!(extract_dist(&dx, &[5, 3], &dctx).is_err());
        assert!(extract_dist(&dx, &[100], &dctx).is_err());
        let (empty, _) = extract_dist(&dx, &[], &dctx).unwrap();
        assert_eq!(empty.nnz(), 0);
    }
}
