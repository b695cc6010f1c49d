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
//! * [`AtomicSpa`] — the paper's parallel SPA (Listing 7) with a
//!   deterministic claim: `isthere` and the value share one atomic word
//!   per slot, claimed by `fetch_min`, so the *smallest* value offered
//!   wins whatever the thread timing. Listing 7 compacts `nzinds` through
//!   an atomic cursor; of the same device in Listing 6 the paper says "we
//!   can avoid the atomic variable by keeping a thread-private array in
//!   each thread and merge these thread-private arrays via a prefix sum",
//!   and that is what this SPA keeps: one index list per task, merged by
//!   an owner rule after the join, in an order no schedule can change.
//!   Values are row ids because the paper stores "the row index as value"
//!   (line 25) — the BFS parent.
//! * `RangeSpa` — the scratch of the bucketed SpMSpV the paper cites as
//!   the fix for the dominant sort of Fig 7 (its reference \[9\], CombBLAS
//!   2.0's SpMSpV-bucket): private append buffers per task and column
//!   range, and a SPA whose columns the ranges split into private windows
//!   with packed occupancy bits. No word has two writers: no atomics.
//!
//! All three reset in O(1) (or O(live data)) rather than O(capacity): the
//! occupancy arrays are *generation-stamped* — a slot is occupied iff its
//! stamp equals the SPA's current generation, so [`DenseSpa::reset`] /
//! [`AtomicSpa::reset`] just step the generation and never touch the
//! dense arrays (bar one clear per 2²⁴ atomic-SPA resets); a `RangeSpa`'s
//! bits are left all zero by the call that set them. That is what makes
//! the [`crate::workspace`] pool's checkout cheap: a pooled SPA is handed
//! back warm, with its backing arrays intact and every slot logically
//! empty. [`DenseSpa`] generations
//! advance in steps of two: the odd stamp just below the current generation
//! marks a slot *admitted* by a mask but not yet written, which is how
//! masked SpGEMM drops a product at the probe instead of filtering the
//! finished row.

use crate::algebra::Monoid;
use crate::error::{GblasError, Result};
use crate::par::Counters;
use parking_lot::{Mutex, MutexGuard};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Read an occupied slot.
    pub fn get(&self, index: usize) -> Option<T> {
        if self.occupied(index) {
            Some(self.values[index])
        } else {
            None
        }
    }

    /// An occupied slot's value, in place (the SpGEMM row kernel writes an
    /// emit rule's image back through it).
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.occupied(index).then(|| &mut self.values[index])
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

/// Low bits of an [`AtomicSpa`] slot word holding the claimed value; the
/// bits above hold the generation stamp.
const VALUE_BITS: u32 = 40;
const VALUE_MASK: u64 = (1 << VALUE_BITS) - 1;

/// One task's list of the indices whose slot it lowered. Neighbouring
/// tasks push concurrently and a `Vec` writes its length on every push, so
/// each list header sits on a cache-line pair of its own.
#[derive(Default)]
#[repr(align(128))]
struct TaskList(Mutex<Vec<usize>>);

/// The paper's parallel SPA with a deterministic claim rule: one atomic
/// word per slot, the **minimum** claim kept, and one index list per task
/// where Listing 7 has a shared `nzinds` array behind an atomic cursor.
///
/// Listing 7 claims with `isthere[colid].testAndSet()`, so under real
/// threads the surviving row id depends on arrival order. Here a slot word
/// is `stamp | value` and a claim is one `fetch_min`. Stamps *fall* from
/// one generation to the next, so a current word compares below every
/// stale one (reset stays O(1)) and, within a generation, below any larger
/// value. The serial schedule visits rows in ascending order, so its first
/// visitor *is* the minimum: results and counters there are Listing 7's.
///
/// **The owner rule.** A task records on its own list every index whose
/// slot its offer *lowered*; nothing is shared but the slot words. The
/// claiming region promises that task `t` offers values from a range of
/// its own, that the ranges ascend with `t`, and that a task's offers
/// for any one index ascend (the kernel's tasks walk contiguous chunks of
/// a strictly ascending frontier). Then the minimum offered for an index
/// lies in exactly one task's range; that task's first offer for the
/// index is the minimum, which finds the slot vacant or holding a larger
/// value, so it lowers the slot and records the index — once, since the
/// task's later offers are larger and stop at the load.
/// [`AtomicSpa::collected`] keeps an entry of task `t`'s list iff the
/// slot's final value lies in `t`'s range: every claimed index is kept
/// exactly once, a task's kept entries stand in the order of its first
/// offers, and the lists concatenated in task order are, entry for entry,
/// the list the serial schedule builds — on any number of real threads.
pub struct AtomicSpa {
    /// Listing 7's `isthere` and `localy` in one word: claimed ⇔ the bits
    /// above [`VALUE_BITS`] equal `stamp`; the bits below are the value.
    slots: Vec<AtomicU64>,
    /// One list per task of the claiming region, each behind a lock only
    /// its task takes. Kept (with their allocations) across checkouts.
    lists: Vec<TaskList>,
    /// The current generation's stamp, in place (value bits zero).
    stamp: u64,
}

impl AtomicSpa {
    /// The largest value a slot can hold.
    pub const MAX_VALUE: usize = VALUE_MASK as usize;

    /// A SPA for outputs of dimension `capacity`, claimed by up to
    /// `ntasks` tasks.
    pub fn new(capacity: usize, ntasks: usize) -> Self {
        // `!VALUE_MASK` is the stamp vacant (all-ones) slots carry.
        let mut spa = AtomicSpa { slots: Vec::new(), lists: Vec::new(), stamp: !VALUE_MASK };
        spa.ensure(capacity, ntasks);
        spa
    }

    /// `Err` unless every value in `0..bound` fits a slot — a kernel checks
    /// its row count once at entry instead of every claim.
    pub fn check_values(bound: usize) -> Result<()> {
        if bound.saturating_sub(1) > Self::MAX_VALUE {
            return Err(GblasError::InvalidArgument(format!(
                "{bound} row ids do not fit the atomic SPA's {VALUE_BITS}-bit value field"
            )));
        }
        Ok(())
    }

    /// The backing domain size.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Logically release every claim in O(1) by stepping the stamp down,
    /// and empty the task lists. When the stamp field is exhausted the
    /// slots are cleared once, O(capacity), and the stamps start over.
    pub fn reset(&mut self) {
        if self.stamp == 0 {
            for slot in &mut self.slots {
                *slot.get_mut() = u64::MAX;
            }
            self.stamp = !VALUE_MASK;
        }
        self.stamp -= 1 << VALUE_BITS;
        for list in &mut self.lists {
            list.0.get_mut().clear();
        }
    }

    /// Make the SPA usable for domain `0..capacity` and `ntasks` claiming
    /// tasks (growing the slots on a pool capacity miss) and reset it.
    /// Returns `true` when the slots had to grow.
    pub fn ensure(&mut self, capacity: usize, ntasks: usize) -> bool {
        let grew = capacity > self.slots.len();
        if grew {
            let extra = capacity - self.slots.len();
            self.slots.extend((0..extra).map(|_| AtomicU64::new(u64::MAX)));
        }
        self.lists.resize_with(ntasks.max(1), TaskList::default);
        self.reset();
        // Together the lists start at one word per slot — what Listing 7's
        // `nzinds` takes — so a steady-state level allocates nothing; a
        // list that outgrows its share keeps what it grew to.
        let share = capacity.div_ceil(self.lists.len());
        for list in &mut self.lists {
            list.0.get_mut().reserve(share);
        }
        grew
    }

    /// Task `t`'s list, to be held for the whole task: no one else takes
    /// this lock before the region has joined.
    pub fn list(&self, t: usize) -> MutexGuard<'_, Vec<usize>> {
        self.lists[t].0.lock()
    }

    /// Offer `value` for slot `index`, which keeps the minimum offered this
    /// generation (Listing 7 lines 21–26 with `min` for test-and-set), and
    /// push `index` onto the offering task's `list` when the offer
    /// *lowered* the slot — its first claim of the generation, or a smaller
    /// value than a racing task's. Returns whether it did. Charges the one
    /// atomic every probe costs; what Listing 7 pays per first claim is
    /// charged by [`AtomicSpa::collected`], so no charge depends on thread
    /// timing. Panics on a `value` above [`AtomicSpa::MAX_VALUE`]; kernels
    /// rule that out once, up front, with [`AtomicSpa::check_values`].
    pub fn claim(
        &self,
        index: usize,
        value: usize,
        list: &mut Vec<usize>,
        counters: &mut Counters,
    ) -> bool {
        assert!(value <= Self::MAX_VALUE, "value {value} overflows the slot's value field");
        let word = self.stamp | value as u64;
        counters.atomics += 1;
        // Relaxed: a slot word publishes no other memory (the SPA is read
        // back only after the claiming region has joined) and `min` needs
        // just the slot's own modification order; a stale load merely
        // falls through to the `fetch_min`.
        if self.slots[index].load(Ordering::Relaxed) <= word {
            return false; // claimed this generation by this row or a smaller one
        }
        if self.slots[index].fetch_min(word, Ordering::Relaxed) <= word {
            return false; // a racing task got below this offer first
        }
        list.push(index);
        true
    }

    /// Read the value stored for a claimed index.
    pub fn value(&self, index: usize) -> usize {
        (self.slots[index].load(Ordering::Acquire) & VALUE_MASK) as usize
    }

    /// The claimed indices (unsorted), once the claiming region has joined:
    /// the task lists concatenated in task order, an entry of task `t`'s
    /// kept iff the slot's final value lies in `values(t)`, the range task
    /// `t` offered from (asked only of a task that recorded something).
    /// This is Listing 7's `nzinds` after its truncation, in the serial
    /// schedule's order whatever the schedule was. Charges, per kept entry,
    /// what the listing pays on a first claim beyond the probe: the
    /// claiming RMW, the cursor fetch-add and the two stores.
    pub fn collected(
        &self,
        values: impl Fn(usize) -> RangeInclusive<usize>,
        counters: &mut Counters,
    ) -> Vec<usize> {
        let recorded = self.lists.iter().map(|list| list.0.lock().len()).sum();
        let mut kept = Vec::with_capacity(recorded);
        for (t, list) in self.lists.iter().enumerate() {
            let list = list.0.lock();
            if list.is_empty() {
                continue;
            }
            let own = values(t);
            kept.extend(list.iter().copied().filter(|&index| own.contains(&self.value(index))));
        }
        counters.atomics += 2 * kept.len() as u64;
        counters.spa_touches += 2 * kept.len() as u64;
        kept
    }
}

/// The scratch of the bucketed SpMSpV (`crate::ops::spmspv`): per task,
/// one append buffer per column range and a packed bitmap of the columns
/// it appended; over all columns, the packed occupancy bits (Listing 7's
/// `isthere`) and the values (`localy`) that the ranges split into private
/// windows. Every bit is zero between calls — a call clears each bit it
/// sets — so a checkout costs nothing per column, and a value is read only
/// where its bit is set. Backing only grows.
#[derive(Debug)]
pub(crate) struct RangeSpa<W> {
    /// `bufs[t * nranges + b]`: task `t`'s appends to column range `b`.
    pub(crate) bufs: Vec<Vec<(usize, W)>>,
    /// Task `t`'s appended-column words, from `t` times the column words.
    pub(crate) seen: Vec<u64>,
    pub(crate) occupied: Vec<u64>,
    pub(crate) values: Vec<W>,
    /// Set while a call may have bits set: a call that unwinds leaves its
    /// scratch to be cleared at the next checkout.
    pub(crate) dirty: bool,
}

impl<W: Copy> RangeSpa<W> {
    /// Scratch for `capacity` columns, `ntasks` tasks and `nbufs` buffers.
    pub(crate) fn new(capacity: usize, ntasks: usize, nbufs: usize, fill: W) -> Self {
        let (bufs, seen, occupied, values) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut spa = RangeSpa { bufs, seen, occupied, values, dirty: false };
        spa.ensure(capacity, ntasks, nbufs, fill);
        spa
    }

    /// Shape the scratch for `capacity` columns, `ntasks` tasks and `nbufs`
    /// buffers, every buffer empty; `true` when backing had to grow.
    pub(crate) fn ensure(&mut self, capacity: usize, ntasks: usize, nbufs: usize, fill: W) -> bool {
        if std::mem::replace(&mut self.dirty, true) {
            self.seen.fill(0);
            self.occupied.fill(0);
        }
        let words = capacity.div_ceil(64).max(1);
        let grew = grow(&mut self.seen, ntasks * words, 0)
            | grow(&mut self.occupied, words, 0)
            | grow(&mut self.values, capacity.max(1), fill)
            | grow(&mut self.bufs, nbufs, Vec::new());
        self.bufs.iter_mut().for_each(Vec::clear);
        grew
    }
}

/// Lengthen `v` to `len` with `fill`; `true` when it was shorter.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) -> bool {
    let short = v.len() < len;
    v.resize(v.len().max(len), fill);
    short
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
        assert_eq!(spa.get(2), None, "admitted is not occupied");
        assert!(spa.fold(2, 7, &Plus, true));
        assert!(!spa.fold(2, 1, &Plus, true));
        assert!(!spa.fold(3, 9, &Plus, true), "not admitted: dropped");
        assert_eq!((spa.get(2), spa.get(3), spa.get(5)), (Some(8), None, None));
        // neither admission nor occupancy survives a reset, in either mode
        spa.reset();
        assert!(!spa.fold(2, 1, &Plus, true) && !spa.fold(5, 1, &Plus, true));
        assert!(spa.fold(5, 4, &Plus, false) && !spa.fold(5, 4, &Plus, false));
        assert_eq!(spa.get(5), Some(8));
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

    /// Any value may be any task's: for tests with one task, or with
    /// nothing recorded twice.
    fn any(_: usize) -> RangeInclusive<usize> {
        0..=AtomicSpa::MAX_VALUE
    }

    /// Whether `index` has been claimed this generation.
    fn claimed(spa: &AtomicSpa, index: usize) -> bool {
        spa.slots[index].load(Ordering::Acquire) & !VALUE_MASK == spa.stamp
    }

    /// The race, driven by hand on one thread: the higher-row task reaches
    /// a column first and the lower-row task then lowers it.
    #[test]
    fn atomic_spa_lists_a_lowered_slot_once_under_the_lower_task() {
        let spa = AtomicSpa::new(16, 2);
        let rows = |t: usize| [0..=150, 151..=300][t].clone();
        let mut c = Counters::default();
        {
            let (mut low, mut high) = (spa.list(0), spa.list(1));
            assert!(spa.claim(7, 200, &mut high, &mut c));
            assert!(spa.claim(3, 50, &mut low, &mut c));
            assert!(spa.claim(7, 100, &mut low, &mut c), "a smaller row lowers the slot");
            assert!(spa.claim(9, 200, &mut high, &mut c));
            assert!(!spa.claim(7, 300, &mut high, &mut c));
            assert!(!spa.claim(7, 120, &mut low, &mut c), "its later rows stop at the load");
            assert_eq!((&*low, &*high), (&vec![3, 7], &vec![7, 9]));
        }
        assert_eq!(spa.value(7), 100);
        assert!(claimed(&spa, 7) && !claimed(&spa, 8));
        assert_eq!(c, Counters { atomics: 6, ..Default::default() }, "one atomic per probe");
        // the serial schedule's list — task 0 walks 3, 7; task 1 finds 7
        // taken and walks 9 — and three first claims, not four
        let mut first = Counters::default();
        assert_eq!(spa.collected(rows, &mut first), vec![3, 7, 9]);
        assert_eq!(first, Counters { atomics: 6, spa_touches: 6, ..Default::default() });
    }

    #[test]
    fn atomic_spa_reset_releases_claims_in_o1() {
        let mut spa = AtomicSpa::new(8, 1);
        let mut c = Counters::default();
        assert!(spa.claim(2, 11, &mut spa.list(0), &mut c));
        assert!(spa.claim(5, 12, &mut spa.list(0), &mut c));
        spa.reset();
        assert!(spa.collected(any, &mut c).is_empty());
        assert!(!claimed(&spa, 2), "stale claims must be invisible");
        // identical counter charges post-reset as on a fresh SPA, and a
        // stale smaller value must not beat a live larger one
        let mut c2 = Counters::default();
        assert!(spa.claim(2, 21, &mut spa.list(0), &mut c2));
        assert!(!spa.claim(2, 22, &mut spa.list(0), &mut c2));
        assert_eq!(spa.value(2), 21);
        assert_eq!(spa.collected(any, &mut c2), vec![2]);
        assert_eq!(c2.atomics, 4);
        // growth path: more slots, more tasks, the lists emptied
        assert!(spa.ensure(20, 3));
        assert_eq!(spa.capacity(), 20);
        assert!(!claimed(&spa, 2));
        assert!(spa.claim(19, 1, &mut spa.list(2), &mut c2));
        assert_eq!(spa.collected(any, &mut c2), vec![19]);
        // a shrink keeps the slots and drops the extra lists
        assert!(!spa.ensure(4, 1));
        assert!(spa.collected(any, &mut c2).is_empty());
    }

    #[test]
    fn atomic_spa_generation_wrap_leaves_it_empty() {
        let mut spa = AtomicSpa::new(8, 1);
        let mut c = Counters::default();
        assert!(spa.claim(1, 4, &mut spa.list(0), &mut c));
        spa.stamp = 0; // the last generation before the stamp field wraps
        assert!(spa.claim(3, 5, &mut spa.list(0), &mut c));
        spa.reset();
        assert!(spa.collected(any, &mut c).is_empty());
        assert!((0..8).all(|i| !claimed(&spa, i)), "the wrap must clear every slot");
        // without the clear the stamp-0 word would sit below every new claim
        assert!(spa.claim(3, 9, &mut spa.list(0), &mut c));
        assert_eq!(spa.value(3), 9);
        assert_eq!(spa.collected(any, &mut c), vec![3]);
    }

    #[test]
    fn atomic_spa_rejects_values_wider_than_the_slot_field() {
        assert!(AtomicSpa::check_values(0).is_ok());
        assert!(AtomicSpa::check_values(AtomicSpa::MAX_VALUE + 1).is_ok());
        assert!(AtomicSpa::check_values(AtomicSpa::MAX_VALUE + 2).is_err());
        // the widest value round-trips without touching the stamp
        let spa = AtomicSpa::new(2, 1);
        let mut c = Counters::default();
        assert!(spa.claim(1, AtomicSpa::MAX_VALUE, &mut spa.list(0), &mut c));
        assert!(claimed(&spa, 1) && !claimed(&spa, 0));
        assert_eq!(spa.value(1), AtomicSpa::MAX_VALUE);
    }

    #[test]
    fn atomic_spa_descending_claims_from_four_threads_leave_the_minimum() {
        // One thread after another (the join is the ordering), the highest
        // task first: every offer lowers the slot, first-writer-wins would
        // keep 40, and only task 0 owns what is left.
        let spa = AtomicSpa::new(8, 4);
        let values = [10usize, 20, 30, 40];
        std::thread::scope(|s| {
            for t in (0..4).rev() {
                let spa = &spa;
                let lowered = s
                    .spawn(move || {
                        spa.claim(5, values[t], &mut spa.list(t), &mut Counters::default())
                    })
                    .join()
                    .expect("claimer");
                assert!(lowered, "task {t} offers less than every task before it");
            }
        });
        assert_eq!(spa.value(5), 10);
        assert!((0..4).all(|t| *spa.list(t) == [5]));
        let mut c = Counters::default();
        assert_eq!(spa.collected(|t| values[t]..=values[t], &mut c), vec![5]);
        assert_eq!((c.atomics, c.spa_touches), (2, 2));
    }

    #[test]
    fn atomic_spa_concurrent_claims_are_exclusive_and_minimal() {
        let spa = AtomicSpa::new(64, 4);
        let atomics = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (spa, atomics, start) = (&spa, &atomics, &start);
                s.spawn(move || {
                    let mut c = Counters::default();
                    let mut list = spa.list(t);
                    start.wait();
                    for i in 0..64 {
                        spa.claim(i, 97 + t, &mut list, &mut c);
                    }
                    atomics.fetch_add(c.atomics, Ordering::Relaxed);
                });
            }
        });
        // Every slot holds the smallest value offered and is collected
        // exactly once, in its owner's order; the charge is
        // timing-independent however many offers lowered a slot.
        assert!((0..64).all(|i| spa.value(i) == 97));
        let mut c = Counters::default();
        assert_eq!(spa.collected(|t| 97 + t..=97 + t, &mut c), (0..64).collect::<Vec<_>>());
        assert_eq!(atomics.load(Ordering::Relaxed) + c.atomics, 4 * 64 + 2 * 64);
    }

    /// A checkout grows what is short, keeps what is long, and clears the
    /// bits a call that unwound left set.
    #[test]
    fn range_spa_grows_only_and_clears_after_an_unwound_call() {
        let mut spa = RangeSpa::new(100, 2, 4, 0u32);
        assert_eq!((spa.seen.len(), spa.occupied.len(), spa.values.len()), (4, 2, 100));
        spa.bufs[3].push((7, 1));
        spa.seen[1] = 1;
        spa.occupied[0] = 8;
        spa.dirty = false;
        assert!(!spa.ensure(40, 1, 2, 0), "a smaller shape fits");
        assert_eq!((spa.seen[1], spa.occupied[0], spa.bufs[3].len()), (1, 8, 0));
        assert!(!spa.ensure(40, 1, 2, 0), "same shape");
        assert!(spa.seen.iter().chain(&spa.occupied).all(|&w| w == 0), "dirty: cleared");
        assert!(spa.ensure(1000, 3, 9, 0));
        assert_eq!((spa.seen.len(), spa.values.len(), spa.bufs.len()), (48, 1000, 9));
        assert_eq!(RangeSpa::new(0, 1, 1, 0u8).values.len(), 1, "one window even with no columns");
    }

    #[test]
    fn atomic_counters_charged() {
        let spa = AtomicSpa::new(4, 1);
        let mut c = Counters::default();
        spa.claim(0, 1, &mut spa.list(0), &mut c); // lowers: the load (the RMW is charged below)
        spa.claim(0, 2, &mut spa.list(0), &mut c); // already claimed: the load alone
        assert_eq!(c.atomics, 2);
        spa.collected(any, &mut c); // one first claim: fetch_min + fetch_add
        assert_eq!((c.atomics, c.spa_touches), (4, 2));
    }
}
