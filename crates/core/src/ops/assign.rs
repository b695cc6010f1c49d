//! `Assign`: copy one sparse object into another (§III-B).
//!
//! The paper implements the restricted form where the source and
//! destination share the same distribution/capacity ("we implement a
//! restrictive version of Assign that requires the domains of A and B to
//! match"; complexity `O(nnz(A))`, no communication).
//!
//! * [`assign_v1`] is Listing 4: rebuild the destination's index set, then
//!   iterate the *domain* and copy element-by-element through indexed
//!   access — each access is an `O(log nnz)` binary search because "two
//!   sparse arrays are not allowed to iterate together (zipper iteration
//!   is not implemented for sparse arrays yet)". This makes Assign1 an
//!   order of magnitude slower (Fig 2, left).
//! * [`assign_v2`] is Listing 5: bulk-copy the index and value arrays
//!   directly ("dense arrays stored in each locale can be zippered").

use crate::container::SparseVec;
use crate::error::{check_dims, Result};
use crate::par::ExecCtx;

/// Phase names used by this op.
pub const PHASE_DOMAIN: &str = "assign-domain";
/// Phase for the value-copy step.
pub const PHASE_VALUES: &str = "assign-values";

/// Listing 4: domain rebuild + per-element indexed copy (binary searches).
pub fn assign_v1<T: Copy + Send + Sync + Default + 'static>(
    a: &mut SparseVec<T>,
    b: &SparseVec<T>,
    ctx: &ExecCtx,
) -> Result<()> {
    check_dims("capacity", a.capacity(), b.capacity())?;
    let _op = ctx.trace_op("assign_v1", b.nnz() as u64, &[("capacity", a.capacity())]);
    // ------ Assign domain ------- (DA.clear(); DA += DB). Rebuilding a
    // sorted sparse domain is merge-class work (sort units), which is what
    // limits Assign to the paper's 5-8x scaling at 24 threads.
    ctx.record(PHASE_DOMAIN, |c| c.sort_elems += b.nnz() as u64);
    a.clear();
    a.assign_domain(b.indices(), T::default())?;
    // ------ Assign array ------- (forall i in DA do A[i] = B[i])
    // Both the read of B[i] and the write of A[i] go through logarithmic
    // indexed access, as in Chapel. Collect per-chunk (index, value) pairs
    // from B by search, then write them into A by search.
    let mut b_indices = ctx.ws_vec::<usize>();
    b_indices.extend_from_slice(a.indices()); // == b.indices()
    let reads = ctx.parallel_for(PHASE_VALUES, b_indices.len(), |r, c| {
        let mut out = ctx.ws_vec::<(usize, T)>();
        for &i in &b_indices[r.clone()] {
            let mut probes = 0;
            let v = *b.get_probed(i, &mut probes).expect("index came from b's domain");
            c.search_probes += probes;
            out.push((i, v));
        }
        c.elems += r.len() as u64;
        out
    });
    let mut probes = 0u64;
    for chunk in reads {
        for &(i, v) in chunk.iter() {
            a.set_existing(i, v, &mut probes)?;
        }
    }
    ctx.record(PHASE_VALUES, |c| c.search_probes += probes);
    Ok(())
}

/// Listing 5: bulk domain copy + zippered dense value copy.
pub fn assign_v2<T: Copy + Send + Sync + Default>(
    a: &mut SparseVec<T>,
    b: &SparseVec<T>,
    ctx: &ExecCtx,
) -> Result<()> {
    check_dims("capacity", a.capacity(), b.capacity())?;
    let _op = ctx.trace_op("assign_v2", b.nnz() as u64, &[("capacity", a.capacity())]);
    a.clear();
    if b.nnz() == 0 {
        return Ok(());
    }
    // ------ Assign domain ------- (locDA.mySparseBlock += locDB.mySparseBlock)
    ctx.record(PHASE_DOMAIN, |c| {
        c.sort_elems += b.nnz() as u64;
        c.bytes_moved += (b.nnz() * std::mem::size_of::<usize>()) as u64;
    });
    a.assign_domain(b.indices(), T::default())?;
    // ------ Assign array ------- zippered chunk copy of the value arrays.
    let src = b.values();
    let n = src.len();
    let chunks = crate::par::split_ranges(n, ctx.threads());
    let dst = a.values_mut();
    let mut slices: Vec<&mut [T]> = Vec::with_capacity(chunks.len());
    let mut rest: &mut [T] = dst;
    for r in &chunks {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        slices.push(head);
        rest = tail;
    }
    let slices: Vec<parking_lot::Mutex<(&mut [T], std::ops::Range<usize>)>> =
        slices.into_iter().zip(chunks.iter().cloned()).map(parking_lot::Mutex::new).collect();
    ctx.for_each_task(PHASE_VALUES, slices.len(), |t, c| {
        let mut guard = slices[t].lock();
        let (dst_chunk, range) = &mut *guard;
        dst_chunk.copy_from_slice(&src[range.clone()]);
        c.elems += dst_chunk.len() as u64;
        c.bytes_moved += (std::mem::size_of_val(*dst_chunk) * 2) as u64;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pair(n: usize) -> (SparseVec<f64>, SparseVec<f64>) {
        let b = SparseVec::from_sorted(n, vec![1, 4, 9, 17], vec![1.0, 4.0, 9.0, 17.0]).unwrap();
        let a = SparseVec::from_sorted(n, vec![0, 2], vec![-1.0, -2.0]).unwrap();
        (a, b)
    }

    #[test]
    fn v1_copies_exactly() {
        let (mut a, b) = sample_pair(32);
        let ctx = ExecCtx::with_threads(2);
        assign_v1(&mut a, &b, &ctx).unwrap();
        assert_eq!(a, b);
        let prof = ctx.take_profile();
        assert!(prof.phase(PHASE_VALUES).search_probes > 0, "v1 must pay log-time searches");
    }

    #[test]
    fn v2_copies_exactly_without_searches() {
        let (mut a, b) = sample_pair(32);
        let ctx = ExecCtx::with_threads(2);
        assign_v2(&mut a, &b, &ctx).unwrap();
        assert_eq!(a, b);
        let prof = ctx.take_profile();
        assert_eq!(prof.phase(PHASE_VALUES).search_probes, 0, "v2 must not search");
    }

    #[test]
    fn v1_and_v2_agree_on_larger_input() {
        let n = 10_000;
        let b = crate::gen::random_sparse_vec(n, 2_000, 42);
        let mut a1 = SparseVec::new(n);
        let mut a2 = SparseVec::new(n);
        let ctx = ExecCtx::with_threads(4);
        assign_v1(&mut a1, &b, &ctx).unwrap();
        assign_v2(&mut a2, &b, &ctx).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(a1, b);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let b = SparseVec::from_sorted(8, vec![1], vec![1.0]).unwrap();
        let mut a = SparseVec::new(9);
        let ctx = ExecCtx::serial();
        assert!(assign_v1(&mut a, &b, &ctx).is_err());
        assert!(assign_v2(&mut a, &b, &ctx).is_err());
    }

    #[test]
    fn assign_empty_source_clears_dest() {
        let mut a = SparseVec::from_sorted(5, vec![3], vec![1.0]).unwrap();
        let b = SparseVec::new(5);
        let ctx = ExecCtx::serial();
        assign_v2(&mut a, &b, &ctx).unwrap();
        assert_eq!(a.nnz(), 0);
    }
}
