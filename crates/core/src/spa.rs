//! Sparse accumulators (SPA).
//!
//! "The nonzeros in those rows are merged using the SPA, which is a data
//! structure that consists of a dense vector of values of the same type as
//! the output y, a dense vector of Booleans (`isthere`) for marking whether
//! that entry in y has been initialized, and a list (or vector) of indices
//! (`nzinds`) for which `isthere` has been set to true." (§III-D, Fig 6)
//!
//! Three variants:
//! * [`DenseSpa`] — the textbook serial SPA, accumulating with an arbitrary
//!   monoid. Used by the semiring SpMSpV and by SpGEMM.
//! * [`AtomicSpa`] — the paper's parallel SPA (Listing 7): `isthere` is an
//!   array of atomics claimed with compare-and-swap, `nzinds` is compacted
//!   through an atomic fetch-add cursor, and only the claiming task writes
//!   the value slot ("only keeping the first index"). Values are `usize`
//!   because the paper stores "the row index as value" (line 25) — the
//!   BFS parent.
//! * [`BucketSpa`] — the sort-*free* merge the paper suggests as the fix
//!   for the dominant sort step of Fig 7 (and that CombBLAS 2.0 ships):
//!   the collected indices are scattered into per-task contiguous
//!   column-range buckets, and each bucket is emitted in index order by a
//!   scan of its (small) range. Sorted output, zero comparison sorts.
//!
//! All three reset in O(1) (or O(live data)) rather than O(capacity): the
//! occupancy arrays are *generation-stamped* — a slot is occupied iff its
//! stamp equals the SPA's current generation, so [`DenseSpa::reset`] /
//! [`AtomicSpa::reset`] just bump the generation and never touch the
//! dense arrays. That is what makes the [`crate::workspace`] pool's
//! checkout cheap: a pooled SPA is handed back warm, with its backing
//! arrays intact and every slot logically empty. [`DenseSpa`] generations
//! advance in steps of two: the odd stamp just below the current generation
//! marks a slot *admitted* by a mask but not yet written, which is how
//! masked SpGEMM drops a product at the probe instead of filtering the
//! finished row.

use crate::algebra::Monoid;
use crate::par::Counters;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Serial sparse accumulator over domain `0..capacity` with monoid
/// accumulation.
#[derive(Debug)]
pub struct DenseSpa<T> {
    values: Vec<T>,
    /// Generation stamp per slot: occupied ⇔ `stamp[i] == generation`,
    /// admitted-but-empty ⇔ `stamp[i] == generation - 1`.
    stamp: Vec<u64>,
    /// Always even and ≥ 2, so no stale stamp reads as admitted.
    generation: u64,
    nzinds: Vec<usize>,
}

impl<T: Copy> DenseSpa<T> {
    /// A SPA for outputs of dimension `capacity`; `fill` initializes the
    /// dense value array (any value works — unoccupied slots are never
    /// read).
    pub fn new(capacity: usize, fill: T) -> Self {
        DenseSpa {
            values: vec![fill; capacity],
            stamp: vec![0; capacity],
            generation: 2,
            nzinds: Vec::new(),
        }
    }

    /// The backing domain size (≥ the capacity most recently requested
    /// through [`DenseSpa::ensure`] — the pool never shrinks backing).
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Number of occupied slots.
    pub fn nnz(&self) -> usize {
        self.nzinds.len()
    }

    /// Logically empty every slot in O(1) by bumping the generation; the
    /// dense arrays are untouched (their stale contents are unobservable
    /// because every read is gated on the stamp).
    pub fn reset(&mut self) {
        self.generation += 2;
        self.nzinds.clear();
    }

    /// Make the SPA usable for domain `0..capacity`, growing the backing
    /// arrays when the request exceeds them (a pool capacity miss), and
    /// reset it. Returns `true` when the backing had to grow.
    pub fn ensure(&mut self, capacity: usize, fill: T) -> bool {
        let grew = capacity > self.values.len();
        if grew {
            self.values.resize(capacity, fill);
            self.stamp.resize(capacity, 0);
        }
        self.reset();
        grew
    }

    #[inline]
    fn occupied(&self, index: usize) -> bool {
        self.stamp[index] == self.generation
    }

    /// Accumulate `value` into slot `index` with `monoid`, charging the SPA
    /// touches to `counters`.
    pub fn accumulate(
        &mut self,
        index: usize,
        value: T,
        monoid: &impl Monoid<T>,
        counters: &mut Counters,
    ) {
        counters.spa_touches += 1;
        if self.occupied(index) {
            self.values[index] = monoid.combine(self.values[index], value);
        } else {
            self.stamp[index] = self.generation;
            self.values[index] = value;
            self.nzinds.push(index);
        }
    }

    /// Insert only if the slot is empty (first-visitor-wins, the paper's
    /// semantics). Returns whether the insert happened.
    pub fn insert_first(&mut self, index: usize, value: T, counters: &mut Counters) -> bool {
        counters.spa_touches += 1;
        if self.occupied(index) {
            false
        } else {
            self.stamp[index] = self.generation;
            self.values[index] = value;
            self.nzinds.push(index);
            true
        }
    }

    /// Read an occupied slot.
    pub fn get(&self, index: usize) -> Option<T> {
        if self.occupied(index) {
            Some(self.values[index])
        } else {
            None
        }
    }

    /// The collected indices, in *insertion* order (unsorted — the caller
    /// sorts, which is exactly the step Fig 7 shows dominating).
    pub fn nzinds(&self) -> &[usize] {
        &self.nzinds
    }

    /// Drain into `(indices_in_insertion_order, values_in_that_order)` and
    /// reset the SPA for reuse. The per-entry value reads are charged as
    /// before; the reset itself is the O(1) generation bump.
    pub fn drain(&mut self, counters: &mut Counters) -> (Vec<usize>, Vec<T>) {
        let inds = std::mem::take(&mut self.nzinds);
        let mut vals = Vec::with_capacity(inds.len());
        for &i in &inds {
            vals.push(self.values[i]);
        }
        counters.spa_touches += inds.len() as u64;
        self.generation += 2;
        (inds, vals)
    }

    /// Mark the empty slot `index` as *admitted*: a gated [`DenseSpa::fold`]
    /// may occupy it. The SpGEMM row kernel seeds a mask row this way.
    pub fn admit(&mut self, index: usize) {
        self.stamp[index] = self.generation - 1;
    }

    /// Whether slot `index` is neither occupied nor admitted.
    pub fn vacant(&self, index: usize) -> bool {
        self.stamp[index] < self.generation - 1
    }

    /// Pattern-only occupy: stamp slot `index` without a value and report
    /// whether it was empty (the symbolic SpGEMM pass counts these).
    pub fn mark(&mut self, index: usize) -> bool {
        let fresh = !self.occupied(index);
        self.stamp[index] = self.generation;
        fresh
    }

    /// Combine `value` into slot `index`, or occupy the slot with it;
    /// returns `true` when the slot was newly occupied. With `gated` only
    /// an *admitted* slot may be occupied and a product landing anywhere
    /// else is dropped. Unlike [`DenseSpa::accumulate`] this neither
    /// records the index (the caller keeps its own list, or walks the mask)
    /// nor charges counters (the caller charges whole rows at once).
    #[inline]
    pub fn fold(&mut self, index: usize, value: T, monoid: &impl Monoid<T>, gated: bool) -> bool {
        let stamp = self.stamp[index];
        if stamp == self.generation {
            self.values[index] = monoid.combine(self.values[index], value);
            false
        } else if !gated || stamp == self.generation - 1 {
            self.stamp[index] = self.generation;
            self.values[index] = value;
            true
        } else {
            false
        }
    }
}

/// The paper's parallel SPA: atomic `isthere` flags, an atomic compaction
/// cursor, and value slots written only by the winning claimer. The
/// `isthere` flags are generation stamps so a reused SPA resets in O(1).
pub struct AtomicSpa {
    /// `isthere` in Listing 7: claimed ⇔ `stamp == generation`.
    isthere: Vec<AtomicU64>,
    /// `localy` in Listing 7: value slot, written only by the claim winner.
    values: Vec<AtomicUsize>,
    nzinds: Vec<AtomicUsize>,
    cursor: AtomicUsize,
    generation: u64,
}

impl AtomicSpa {
    /// A SPA for outputs of dimension `capacity`, with room for up to
    /// `capacity` collected indices (the listing allocates `nzinds` of
    /// length `ncol`).
    pub fn new(capacity: usize) -> Self {
        AtomicSpa {
            isthere: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            values: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
            nzinds: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
            cursor: AtomicUsize::new(0),
            generation: 1,
        }
    }

    /// The backing domain size.
    pub fn capacity(&self) -> usize {
        self.isthere.len()
    }

    /// Logically release every claim in O(1) by bumping the generation and
    /// rewinding the compaction cursor.
    pub fn reset(&mut self) {
        self.generation += 1;
        self.cursor.store(0, Ordering::Relaxed);
    }

    /// Make the SPA usable for domain `0..capacity` (growing the atomic
    /// arrays on a pool capacity miss) and reset it. Returns `true` when
    /// the backing had to grow.
    pub fn ensure(&mut self, capacity: usize) -> bool {
        let grew = capacity > self.isthere.len();
        if grew {
            let extra = capacity - self.isthere.len();
            self.isthere.extend((0..extra).map(|_| AtomicU64::new(0)));
            self.values.extend((0..extra).map(|_| AtomicUsize::new(0)));
            self.nzinds.extend((0..extra).map(|_| AtomicUsize::new(0)));
        }
        self.reset();
        grew
    }

    /// Try to claim slot `index` with `value`; the first claimer wins
    /// (Listing 7 lines 21–26: test, set, record). Returns `true` when this
    /// call was the winner. Charges one atomic read, and on a win the CAS,
    /// the fetch-add and the stores, to `counters`.
    pub fn claim_first(&self, index: usize, value: usize, counters: &mut Counters) -> bool {
        counters.atomics += 1;
        let seen = self.isthere[index].load(Ordering::Relaxed);
        if seen == self.generation {
            return false;
        }
        counters.atomics += 1;
        if self.isthere[index]
            .compare_exchange(seen, self.generation, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.values[index].store(value, Ordering::Relaxed);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed);
        counters.atomics += 1;
        self.nzinds[slot].store(index, Ordering::Relaxed);
        counters.spa_touches += 2;
        true
    }

    /// Number of claimed slots so far.
    pub fn nnz(&self) -> usize {
        self.cursor.load(Ordering::Acquire)
    }

    /// Read the value stored for a claimed index.
    pub fn value(&self, index: usize) -> usize {
        self.values[index].load(Ordering::Acquire)
    }

    /// Whether `index` has been claimed.
    pub fn contains(&self, index: usize) -> bool {
        self.isthere[index].load(Ordering::Acquire) == self.generation
    }

    /// Snapshot the collected indices (unsorted) — Listing 7's
    /// `nzinds.remove(k.read(), ncol-k.read())` truncation.
    pub fn collected(&self) -> Vec<usize> {
        let n = self.nnz();
        self.nzinds[..n].iter().map(|a| a.load(Ordering::Acquire)).collect()
    }
}

/// Bucketed index merger: the sort-free alternative to the global
/// comparison sort of the collected `nzinds`.
///
/// The output domain `0..capacity` is split into `nbuckets` contiguous
/// column ranges (one per task, the same block split `parallel_for` uses).
/// [`BucketSpa::scatter`] drops each collected index into its bucket — an
/// `O(nnz)` random-access pass — and [`BucketSpa::collect_bucket`] emits a
/// bucket's indices in ascending order by scanning the bucket's column
/// range against the SPA's occupancy predicate. Concatenating the buckets
/// in order yields a globally sorted index list without a single
/// comparison sort (`sort_elems` stays zero); the price is the `O(range)`
/// scan of every *non-empty* bucket, which is the classic bucket/counting
/// trade the paper's suggested remedy makes.
#[derive(Debug)]
pub struct BucketSpa {
    ranges: Vec<Range<usize>>,
    buckets: Vec<Vec<usize>>,
    /// The `(capacity, nbuckets)` the ranges were computed for, so a
    /// same-shape [`BucketSpa::reset`] skips recomputing them.
    shape: (usize, usize),
}

impl BucketSpa {
    /// Buckets covering `0..capacity` in `nbuckets` near-equal contiguous
    /// ranges (fewer when `capacity < nbuckets`; one empty range when the
    /// domain is empty).
    pub fn new(capacity: usize, nbuckets: usize) -> Self {
        let ranges = crate::par::split_ranges(capacity, nbuckets);
        let buckets = vec![Vec::new(); ranges.len()];
        BucketSpa { ranges, buckets, shape: (capacity, nbuckets) }
    }

    /// Re-shape for `(capacity, nbuckets)` and clear every bucket, keeping
    /// the buckets' allocations. A same-shape reset (the steady state of
    /// an iterative algorithm on one context) allocates nothing.
    pub fn reset(&mut self, capacity: usize, nbuckets: usize) {
        if self.shape != (capacity, nbuckets) {
            self.ranges = crate::par::split_ranges(capacity, nbuckets);
            // Keep existing bucket allocations; only adjust the count.
            self.buckets.resize_with(self.ranges.len(), Vec::new);
            self.buckets.truncate(self.ranges.len());
            self.shape = (capacity, nbuckets);
        }
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// Number of buckets actually allocated.
    pub fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    /// The column range bucket `b` covers.
    pub fn range(&self, b: usize) -> Range<usize> {
        self.ranges[b].clone()
    }

    /// Which bucket owns `index` — inverts the block-split floor
    /// arithmetic instead of binary searching.
    pub fn bucket_of(&self, index: usize) -> usize {
        let len = self.ranges.last().map_or(0, |r| r.end);
        let n = self.ranges.len();
        let base = len / n;
        if base == 0 {
            return 0; // empty domain: the single 0..0 bucket
        }
        let extra = len % n;
        let wide = extra * (base + 1);
        if index < wide {
            index / (base + 1)
        } else {
            extra + (index - wide) / base
        }
    }

    /// Scatter the collected (unsorted, duplicate-free) indices into their
    /// buckets: one streamed read plus one random bucket append per index.
    pub fn scatter(&mut self, indices: &[usize], counters: &mut Counters) {
        for &i in indices {
            let b = self.bucket_of(i);
            self.buckets[b].push(i);
        }
        counters.elems += indices.len() as u64;
        counters.rand_access += indices.len() as u64;
    }

    /// Emit bucket `b`'s indices in ascending order by scanning its column
    /// range against the SPA occupancy predicate `is_set`. Empty buckets
    /// are free; a non-empty bucket pays its full range scan (`elems`).
    pub fn collect_bucket(
        &self,
        b: usize,
        is_set: impl Fn(usize) -> bool,
        counters: &mut Counters,
    ) -> Vec<usize> {
        let pending = &self.buckets[b];
        if pending.is_empty() {
            return Vec::new();
        }
        let range = self.ranges[b].clone();
        counters.elems += range.len() as u64;
        counters.spa_touches += pending.len() as u64;
        let mut out = Vec::with_capacity(pending.len());
        for i in range {
            if is_set(i) {
                out.push(i);
            }
        }
        debug_assert_eq!(out.len(), pending.len(), "occupancy must match the scattered indices");
        out
    }

    /// Total scattered indices currently held.
    pub fn nnz(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Plus;

    #[test]
    fn dense_spa_accumulates_with_monoid() {
        let mut spa = DenseSpa::new(8, 0.0f64);
        let mut c = Counters::default();
        spa.accumulate(3, 1.0, &Plus, &mut c);
        spa.accumulate(5, 2.0, &Plus, &mut c);
        spa.accumulate(3, 4.0, &Plus, &mut c);
        assert_eq!(spa.nnz(), 2);
        assert_eq!(spa.get(3), Some(5.0));
        assert_eq!(spa.get(0), None);
        assert_eq!(c.spa_touches, 3);
        let (inds, vals) = spa.drain(&mut c);
        assert_eq!(inds, vec![3, 5]);
        assert_eq!(vals, vec![5.0, 2.0]);
        // reusable after drain
        assert_eq!(spa.nnz(), 0);
        assert_eq!(spa.get(3), None);
    }

    #[test]
    fn dense_spa_first_visitor() {
        let mut spa = DenseSpa::new(4, 0usize);
        let mut c = Counters::default();
        assert!(spa.insert_first(2, 10, &mut c));
        assert!(!spa.insert_first(2, 20, &mut c));
        assert_eq!(spa.get(2), Some(10));
    }

    /// The generation-based reset must charge exactly the same SPA-touch
    /// counters as a freshly allocated SPA for the same operation
    /// sequence, and must never leak values across generations.
    #[test]
    fn reused_dense_spa_counters_match_fresh() {
        let run = |spa: &mut DenseSpa<f64>| -> (Counters, Vec<usize>, Vec<f64>) {
            let mut c = Counters::default();
            spa.accumulate(1, 2.0, &Plus, &mut c);
            spa.accumulate(6, 3.0, &Plus, &mut c);
            spa.accumulate(1, 5.0, &Plus, &mut c);
            let (i, v) = spa.drain(&mut c);
            (c, i, v)
        };
        let mut fresh = DenseSpa::new(8, 0.0f64);
        let expect = run(&mut fresh);

        let mut reused = DenseSpa::new(8, 0.0f64);
        let mut c = Counters::default();
        reused.accumulate(1, 99.0, &Plus, &mut c); // stale garbage from a prior op
        reused.accumulate(7, 42.0, &Plus, &mut c);
        reused.reset();
        assert_eq!(reused.get(1), None, "reset must hide stale slots");
        assert_eq!(reused.nnz(), 0);
        let got = run(&mut reused);
        assert_eq!(got, expect, "reuse must be observationally identical");
    }

    #[test]
    fn gated_fold_admits_only_seeded_slots() {
        let mut spa = DenseSpa::new(8, 0u64);
        spa.admit(2);
        spa.admit(5);
        assert!(!spa.vacant(2) && spa.vacant(3));
        assert_eq!(spa.get(2), None, "admitted is not occupied");
        assert!(spa.fold(2, 7, &Plus, true));
        assert!(!spa.fold(2, 1, &Plus, true));
        assert!(!spa.fold(3, 9, &Plus, true), "not admitted: dropped");
        assert_eq!((spa.get(2), spa.get(3), spa.get(5)), (Some(8), None, None));
        // neither admission nor occupancy survives a reset, in either mode
        spa.reset();
        assert!(spa.vacant(2) && spa.vacant(5));
        assert!(!spa.fold(2, 1, &Plus, true) && !spa.fold(5, 1, &Plus, true));
        assert!(spa.fold(5, 4, &Plus, false) && !spa.fold(5, 4, &Plus, false));
        assert_eq!(spa.get(5), Some(8));
        assert!(spa.mark(6) && !spa.mark(6) && !spa.mark(5));
    }

    #[test]
    fn dense_spa_ensure_grows_and_clears() {
        let mut spa = DenseSpa::new(4, 0i64);
        let mut c = Counters::default();
        spa.accumulate(3, 7, &Plus, &mut c);
        assert!(!spa.ensure(4, 0), "same capacity is not a miss");
        assert_eq!(spa.get(3), None);
        assert!(spa.ensure(10, 0), "growth is a miss");
        assert_eq!(spa.capacity(), 10);
        spa.accumulate(9, 1, &Plus, &mut c);
        assert_eq!(spa.get(9), Some(1));
        assert_eq!(spa.get(3), None);
    }

    #[test]
    fn atomic_spa_single_winner_per_slot() {
        let spa = AtomicSpa::new(16);
        let mut c = Counters::default();
        assert!(spa.claim_first(7, 100, &mut c));
        assert!(!spa.claim_first(7, 200, &mut c));
        assert_eq!(spa.value(7), 100);
        assert!(spa.contains(7));
        assert!(!spa.contains(8));
        assert_eq!(spa.collected(), vec![7]);
    }

    #[test]
    fn atomic_spa_reset_releases_claims_in_o1() {
        let mut spa = AtomicSpa::new(8);
        let mut c = Counters::default();
        assert!(spa.claim_first(2, 11, &mut c));
        assert!(spa.claim_first(5, 12, &mut c));
        spa.reset();
        assert_eq!(spa.nnz(), 0);
        assert!(!spa.contains(2), "stale claims must be invisible");
        // identical counter charges post-reset as on a fresh SPA
        let mut c2 = Counters::default();
        assert!(spa.claim_first(2, 21, &mut c2));
        assert!(!spa.claim_first(2, 22, &mut c2));
        assert_eq!(c2.atomics, 4);
        assert_eq!(spa.value(2), 21);
        assert_eq!(spa.collected(), vec![2]);
        // growth path
        assert!(spa.ensure(20));
        assert_eq!(spa.capacity(), 20);
        assert!(!spa.contains(2));
        assert!(spa.claim_first(19, 1, &mut c2));
    }

    #[test]
    fn atomic_spa_concurrent_claims_are_exclusive() {
        use std::sync::atomic::AtomicUsize;
        let spa = AtomicSpa::new(64);
        let wins = AtomicUsize::new(0);
        crossbeam::thread::scope(|s| {
            for t in 0..4 {
                let spa = &spa;
                let wins = &wins;
                s.spawn(move |_| {
                    let mut c = Counters::default();
                    for i in 0..64 {
                        if spa.claim_first(i, t, &mut c) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        // Every slot claimed exactly once across all threads.
        assert_eq!(wins.load(Ordering::Relaxed), 64);
        assert_eq!(spa.nnz(), 64);
        let mut collected = spa.collected();
        collected.sort_unstable();
        assert_eq!(collected, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_of_matches_ranges() {
        for (cap, nb) in [(10usize, 3usize), (100, 8), (7, 16), (1, 1), (1000, 24)] {
            let spa = BucketSpa::new(cap, nb);
            for i in 0..cap {
                let b = spa.bucket_of(i);
                assert!(spa.range(b).contains(&i), "cap={cap} nb={nb} i={i} b={b}");
            }
        }
    }

    #[test]
    fn bucket_scatter_collect_sorts_without_comparisons() {
        let occupied = [3usize, 17, 4, 96, 55, 0, 42, 99, 18];
        let spa = {
            let mut s = BucketSpa::new(100, 4);
            let mut c = Counters::default();
            s.scatter(&occupied, &mut c);
            assert_eq!(c.rand_access, occupied.len() as u64);
            assert_eq!(c.sort_elems, 0);
            assert_eq!(s.nnz(), occupied.len());
            s
        };
        let set: std::collections::BTreeSet<usize> = occupied.iter().copied().collect();
        let mut out = Vec::new();
        let mut c = Counters::default();
        for b in 0..spa.nbuckets() {
            out.extend(spa.collect_bucket(b, |i| set.contains(&i), &mut c));
        }
        assert_eq!(out, set.into_iter().collect::<Vec<_>>());
        assert_eq!(c.sort_elems, 0);
    }

    #[test]
    fn bucket_spa_reset_reshapes_and_clears() {
        let mut spa = BucketSpa::new(100, 4);
        let mut c = Counters::default();
        spa.scatter(&[5, 80], &mut c);
        assert_eq!(spa.nnz(), 2);
        // same shape: buckets cleared, ranges identical
        spa.reset(100, 4);
        assert_eq!(spa.nnz(), 0);
        assert_eq!(spa.nbuckets(), 4);
        // new shape: ranges recomputed, bucket_of stays consistent
        spa.reset(37, 6);
        assert_eq!(spa.nbuckets(), BucketSpa::new(37, 6).nbuckets());
        for i in 0..37 {
            let b = spa.bucket_of(i);
            assert!(spa.range(b).contains(&i), "i={i} b={b}");
        }
        spa.scatter(&[36, 0], &mut c);
        assert_eq!(spa.nnz(), 2);
    }

    #[test]
    fn empty_buckets_are_free() {
        let mut spa = BucketSpa::new(1000, 10);
        let mut c = Counters::default();
        spa.scatter(&[5], &mut c); // only bucket 0 is touched
        let mut c = Counters::default();
        for b in 0..spa.nbuckets() {
            let _ = spa.collect_bucket(b, |i| i == 5, &mut c);
        }
        // only bucket 0's 100-wide range was scanned
        assert_eq!(c.elems, 100);
    }

    #[test]
    fn atomic_counters_charged() {
        let spa = AtomicSpa::new(4);
        let mut c = Counters::default();
        spa.claim_first(0, 1, &mut c); // win: load + cas + fetch_add = 3
        spa.claim_first(0, 2, &mut c); // lose at the load: 1
        assert_eq!(c.atomics, 4);
    }
}
