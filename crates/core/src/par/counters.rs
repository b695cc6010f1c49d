//! Work counters — the measurement half of the execution/simulation split.

/// Counts of the primitive work performed while executing an operation.
///
/// Every counter corresponds to a mechanism the paper identifies as a
/// performance driver, and `gblas_sim::CostModel` prices each with a
/// calibrated per-unit cost:
///
/// * `elems` — elements streamed sequentially (the `O(nnz)` body of
///   Apply/Assign/eWiseMult);
/// * `flops` — semiring multiply+add pairs (SpMSpV/SpMV/MxM inner loops);
/// * `search_probes` — binary-search probe steps. "Accessing the *i*th
///   entry A\[i\] of the sparse array A requires logarithmic time" (§III-B)
///   — this is the counter that makes Assign1 ~10× slower than Assign2;
/// * `atomics` — atomic read-modify-write operations (the `fetchAdd`
///   compaction in Listing 6, the `isthere` claims in Listing 7);
/// * `sort_elems` — elements moved per sorting pass, summed over passes
///   (`n·log n` for merge sort, `n·passes` for radix), the dominant cost of
///   shared-memory SpMSpV (Fig 7);
/// * `spa_touches` — sparse-accumulator reads/writes (dense-array random
///   access, cache-unfriendly);
/// * `rand_access` — other random (non-streaming) memory accesses;
/// * `bytes_moved` — bytes streamed, used for the memory-bandwidth ceiling;
/// * `tasks`/`regions` — fork-join bookkeeping: the per-task spawn
///   overhead is exactly the "burdened parallelism" of §I.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Elements streamed sequentially.
    pub elems: u64,
    /// Semiring multiply/add operation pairs.
    pub flops: u64,
    /// Binary-search probe steps (each probe is one compare + dependent load).
    pub search_probes: u64,
    /// Atomic read-modify-write operations.
    pub atomics: u64,
    /// Elements moved during sorting, summed across passes.
    pub sort_elems: u64,
    /// Sparse-accumulator touches (random access into a dense array).
    pub spa_touches: u64,
    /// Other random-access loads/stores.
    pub rand_access: u64,
    /// Bytes streamed (for the bandwidth ceiling).
    pub bytes_moved: u64,
    /// Tasks spawned by fork-join regions.
    pub tasks: u64,
    /// Fork-join regions entered.
    pub regions: u64,
}

impl Counters {
    /// Element-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &Counters) {
        self.elems += other.elems;
        self.flops += other.flops;
        self.search_probes += other.search_probes;
        self.atomics += other.atomics;
        self.sort_elems += other.sort_elems;
        self.spa_touches += other.spa_touches;
        self.rand_access += other.rand_access;
        self.bytes_moved += other.bytes_moved;
        self.tasks += other.tasks;
        self.regions += other.regions;
    }

    /// True when no work at all has been recorded.
    pub fn is_empty(&self) -> bool {
        *self == Counters::default()
    }

    /// Field-wise `self - earlier`, saturating at zero — used to attribute
    /// the work performed between two profile snapshots to a trace span.
    pub fn saturating_sub(&self, earlier: &Counters) -> Counters {
        Counters {
            elems: self.elems.saturating_sub(earlier.elems),
            flops: self.flops.saturating_sub(earlier.flops),
            search_probes: self.search_probes.saturating_sub(earlier.search_probes),
            atomics: self.atomics.saturating_sub(earlier.atomics),
            sort_elems: self.sort_elems.saturating_sub(earlier.sort_elems),
            spa_touches: self.spa_touches.saturating_sub(earlier.spa_touches),
            rand_access: self.rand_access.saturating_sub(earlier.rand_access),
            bytes_moved: self.bytes_moved.saturating_sub(earlier.bytes_moved),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            regions: self.regions.saturating_sub(earlier.regions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Counters { elems: 1, atomics: 2, ..Default::default() };
        let b = Counters { elems: 10, sort_elems: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.elems, 11);
        assert_eq!(a.atomics, 2);
        assert_eq!(a.sort_elems, 5);
    }

    #[test]
    fn default_is_empty() {
        assert!(Counters::default().is_empty());
        let c = Counters { flops: 1, ..Default::default() };
        assert!(!c.is_empty());
    }

    #[test]
    fn saturating_sub_attributes_deltas() {
        let before = Counters { elems: 10, flops: 5, ..Default::default() };
        let after = Counters { elems: 25, flops: 5, atomics: 3, ..Default::default() };
        let d = after.saturating_sub(&before);
        assert_eq!(d.elems, 15);
        assert_eq!(d.flops, 0);
        assert_eq!(d.atomics, 3);
        // underflow clamps instead of wrapping
        assert_eq!(before.saturating_sub(&after).elems, 0);
    }
}
