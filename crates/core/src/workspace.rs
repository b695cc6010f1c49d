//! Reusable kernel workspaces: the allocation-reuse subsystem.
//!
//! Every hot kernel (SpMSpV, MxV, eWise, Assign, the radix/merge sorts)
//! needs per-call scratch — a SPA over the output domain, per-task
//! staging vectors, bucket scratch, per-destination outboxes. Before this
//! subsystem each call re-materialized that scratch (`O(n)` allocation
//! *and* zero-fill per BFS level before any real work), which is exactly
//! the churn CombBLAS 2.0 attributes much of its distributed speedup to
//! eliminating. A [`WorkspacePool`] keeps retired scratch shelved by
//! concrete type; kernels check it out through RAII [`WsGuard`]s that
//! hand the buffer back on drop, so an iterative algorithm allocates on
//! its first iteration and then runs allocation-free.
//!
//! Three design points:
//!
//! * **Lazy reset.** Pooled SPAs are generation-stamped (see
//!   [`crate::spa`]), so a checkout costs an O(1) generation bump, never
//!   an O(capacity) clear. Plain vectors are `clear()`ed (O(1) for `Copy`
//!   payloads), keeping their backing capacity.
//! * **Capacity misses fall back to fresh allocation.** A checkout whose
//!   request exceeds every shelved buffer grows or allocates — counted in
//!   the `pool_misses`/`allocs`/`alloc_bytes` metrics so "steady-state
//!   misses = 0" is a pinned, observable invariant rather than a claim.
//! * **Escape hatch.** [`WorkspacePool::set_enabled`]`(false)` (what the
//!   binaries do under `GBLAS_WORKSPACE=off`) disables pooling: every
//!   checkout allocates fresh and nothing is shelved, giving a
//!   bit-identical unpooled oracle for equivalence tests.
//!
//! Accounting lives in the [`MetricsRegistry`] (`allocs`, `alloc_bytes`,
//! `pool_hits`, `pool_misses`) and mirrored pool-local [`WorkspaceStats`]
//! — deliberately *not* in [`crate::par::Counters`]: pooling must not
//! perturb the simulated cost model or any golden trace, so the work
//! counters of a pooled and an unpooled run are identical by
//! construction.

use crate::spa::{AtomicSpa, DenseSpa, RangeSpa};
use crate::trace::MetricsRegistry;
use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on shelved buffers per concrete type, bounding pool memory even
/// under pathological checkout patterns.
const SHELF_CAP: usize = 64;

/// Snapshot of one pool's reuse accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Checkouts served from the shelf without allocating.
    pub pool_hits: u64,
    /// Checkouts that allocated fresh (cold pool, capacity miss, or
    /// pooling disabled).
    pub pool_misses: u64,
    /// Fresh allocations made (misses plus in-place growth of pooled
    /// buffers on capacity misses).
    pub allocs: u64,
    /// Estimated bytes of those allocations.
    pub alloc_bytes: u64,
}

impl WorkspaceStats {
    /// Accumulate another pool's stats (for per-locale aggregation).
    pub fn merge(&mut self, other: &WorkspaceStats) {
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }

    /// Field-wise saturating difference — `later - earlier` for deltas
    /// across iterations.
    pub fn saturating_sub(&self, earlier: &WorkspaceStats) -> WorkspaceStats {
        WorkspaceStats {
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
        }
    }
}

/// A shelf of retired workspace buffers keyed by concrete type, plus the
/// reuse accounting. Shared via `Arc` by an [`crate::par::ExecCtx`] (and,
/// in the distributed layer, one per locale) so scratch survives across
/// ops and algorithm iterations.
pub struct WorkspacePool {
    enabled: AtomicBool,
    shelves: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspacePool")
            .field("enabled", &self.enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for WorkspacePool {
    /// Pooling on.
    fn default() -> Self {
        Self::new(true)
    }
}

impl WorkspacePool {
    /// A pool with pooling explicitly on or off.
    pub fn new(enabled: bool) -> Self {
        WorkspacePool {
            enabled: AtomicBool::new(enabled),
            shelves: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }

    /// Whether checkouts recycle shelved buffers.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip pooling; turning it off drains the shelves.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if !on {
            self.shelves.lock().clear();
        }
    }

    /// The pool's cumulative reuse accounting.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            pool_hits: self.hits.load(Ordering::Relaxed),
            pool_misses: self.misses.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
        }
    }

    fn take_raw<T: Send + 'static>(&self) -> Option<T> {
        if !self.enabled() {
            return None;
        }
        let boxed = self.shelves.lock().get_mut(&TypeId::of::<T>())?.pop()?;
        // The shelf is keyed by `TypeId::of::<T>`, so this downcast
        // cannot fail.
        Some(*boxed.downcast::<T>().expect("workspace shelf type mismatch"))
    }

    fn put_raw<T: Send + 'static>(&self, item: T) {
        if !self.enabled() {
            return;
        }
        let mut shelves = self.shelves.lock();
        let shelf = shelves.entry(TypeId::of::<T>()).or_default();
        if shelf.len() < SHELF_CAP {
            shelf.push(Box::new(item));
        }
    }

    fn charge_hit(&self, metrics: &MetricsRegistry) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        metrics.pool_hits(1);
    }

    fn charge_miss(&self, bytes: u64, metrics: &MetricsRegistry) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics.pool_misses(1);
        self.charge_alloc(bytes, metrics);
    }

    fn charge_alloc(&self, bytes: u64, metrics: &MetricsRegistry) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
        metrics.allocs(1);
        metrics.alloc_bytes(bytes);
    }

    fn guard<T: Send + 'static>(self: &Arc<Self>, item: T) -> WsGuard<T> {
        let pool = self.enabled().then(|| Arc::clone(self));
        WsGuard { pool, item: Some(item) }
    }

    /// Check out a [`DenseSpa`] covering `0..capacity`, logically empty.
    pub fn dense_spa<T: Copy + Send + 'static>(
        self: &Arc<Self>,
        capacity: usize,
        fill: T,
        metrics: &MetricsRegistry,
    ) -> WsGuard<DenseSpa<T>> {
        let elem = (std::mem::size_of::<T>() + std::mem::size_of::<u64>()) as u64;
        match self.take_raw::<DenseSpa<T>>() {
            Some(mut spa) => {
                let shortfall = capacity.saturating_sub(spa.capacity()) as u64;
                if spa.ensure(capacity, fill) {
                    self.charge_alloc(shortfall * elem, metrics);
                }
                self.charge_hit(metrics);
                self.guard(spa)
            }
            None => {
                self.charge_miss(capacity as u64 * elem, metrics);
                self.guard(DenseSpa::new(capacity, fill))
            }
        }
    }

    /// Check out an [`AtomicSpa`] covering `0..capacity` with a claim list
    /// for each of `ntasks` tasks, logically empty.
    pub fn atomic_spa(
        self: &Arc<Self>,
        capacity: usize,
        ntasks: usize,
        metrics: &MetricsRegistry,
    ) -> WsGuard<AtomicSpa> {
        // A slot is one 8 B word and the task lists together start at 8 B
        // per slot (each reserves `capacity.div_ceil(ntasks)` entries).
        let elem = (std::mem::size_of::<u64>() + std::mem::size_of::<usize>()) as u64;
        match self.take_raw::<AtomicSpa>() {
            Some(mut spa) => {
                let shortfall = capacity.saturating_sub(spa.capacity()) as u64;
                if spa.ensure(capacity, ntasks) {
                    self.charge_alloc(shortfall * elem, metrics);
                }
                self.charge_hit(metrics);
                self.guard(spa)
            }
            None => {
                self.charge_miss(capacity as u64 * elem, metrics);
                self.guard(AtomicSpa::new(capacity, ntasks))
            }
        }
    }

    /// Check out a [`RangeSpa`] for `capacity` columns, `ntasks` appending
    /// tasks and `nbufs` append buffers, every buffer empty.
    pub(crate) fn range_spa<W: Copy + Send + 'static>(
        self: &Arc<Self>,
        capacity: usize,
        ntasks: usize,
        nbufs: usize,
        fill: W,
        metrics: &MetricsRegistry,
    ) -> WsGuard<RangeSpa<W>> {
        // A column is one value and `ntasks + 1` bits; the buffers start
        // empty and grow with their appends.
        let bytes = capacity * std::mem::size_of::<W>()
            + capacity * (ntasks + 1) / 8
            + nbufs * std::mem::size_of::<Vec<(usize, W)>>();
        match self.take_raw::<RangeSpa<W>>() {
            Some(mut spa) => {
                if spa.ensure(capacity, ntasks, nbufs, fill) {
                    self.charge_alloc(bytes as u64, metrics);
                }
                self.charge_hit(metrics);
                self.guard(spa)
            }
            None => {
                self.charge_miss(bytes as u64, metrics);
                self.guard(RangeSpa::new(capacity, ntasks, nbufs, fill))
            }
        }
    }

    /// Check out an empty staging vector (backing capacity retained from
    /// its previous life; grows lazily as the kernel pushes).
    pub fn vec<T: Send + 'static>(self: &Arc<Self>, metrics: &MetricsRegistry) -> WsGuard<Vec<T>> {
        match self.take_raw::<Vec<T>>() {
            Some(mut v) => {
                v.clear();
                self.charge_hit(metrics);
                self.guard(v)
            }
            None => {
                // An empty `Vec` performs no heap allocation yet; the
                // first growth is what the allocator will see.
                self.charge_miss(0, metrics);
                self.guard(Vec::new())
            }
        }
    }

    /// Check out a vector of exactly `len` copies of `fill` (the dense
    /// owner-side scratch shape: `vec![fill; len]` without the per-call
    /// allocation).
    pub fn filled_vec<T: Clone + Send + 'static>(
        self: &Arc<Self>,
        len: usize,
        fill: T,
        metrics: &MetricsRegistry,
    ) -> WsGuard<Vec<T>> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        match self.take_raw::<Vec<T>>() {
            Some(mut v) => {
                if v.capacity() < len {
                    self.charge_alloc(bytes, metrics);
                }
                v.clear();
                v.resize(len, fill);
                self.charge_hit(metrics);
                self.guard(v)
            }
            None => {
                self.charge_miss(bytes, metrics);
                self.guard(vec![fill; len])
            }
        }
    }

    /// Check out a vector of `n` empty inner vectors (the per-destination
    /// outbox shape), inner allocations retained across checkouts.
    pub fn nested_vec<T: Send + 'static>(
        self: &Arc<Self>,
        n: usize,
        metrics: &MetricsRegistry,
    ) -> WsGuard<Vec<Vec<T>>> {
        let bytes = (n * std::mem::size_of::<Vec<T>>()) as u64;
        match self.take_raw::<Vec<Vec<T>>>() {
            Some(mut v) => {
                if v.len() != n {
                    v.resize_with(n, Vec::new);
                    v.truncate(n);
                }
                for inner in v.iter_mut() {
                    inner.clear();
                }
                self.charge_hit(metrics);
                self.guard(v)
            }
            None => {
                self.charge_miss(bytes, metrics);
                self.guard((0..n).map(|_| Vec::new()).collect())
            }
        }
    }
}

/// RAII checkout of one workspace buffer: dereferences to the buffer and
/// returns it to its pool on drop. Detached from the pool (plain
/// ownership, dropped normally) when pooling is disabled.
pub struct WsGuard<T: Send + 'static> {
    pool: Option<Arc<WorkspacePool>>,
    item: Option<T>,
}

impl<T: Send + 'static> WsGuard<T> {
    /// Take the buffer out of the guard permanently — it will *not*
    /// return to the pool (for the rare case where scratch graduates
    /// into an owned output).
    pub fn into_inner(mut self) -> T {
        self.item.take().expect("workspace guard already emptied")
    }
}

impl<T: Send + 'static> Deref for WsGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.item.as_ref().expect("workspace guard already emptied")
    }
}

impl<T: Send + 'static> DerefMut for WsGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("workspace guard already emptied")
    }
}

impl<T: Send + 'static> Drop for WsGuard<T> {
    fn drop(&mut self) {
        if let (Some(pool), Some(item)) = (self.pool.take(), self.item.take()) {
            pool.put_raw(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<WorkspacePool> {
        Arc::new(WorkspacePool::new(true))
    }

    #[test]
    fn checkout_miss_then_hit() {
        let p = pool();
        let m = MetricsRegistry::default();
        {
            let mut v = p.vec::<usize>(&m);
            v.extend(0..100);
        } // drop returns it
        let v = p.vec::<usize>(&m);
        assert!(v.is_empty(), "recycled vector must be cleared");
        assert!(v.capacity() >= 100, "recycled vector keeps its backing");
        let s = p.stats();
        assert_eq!((s.pool_misses, s.pool_hits), (1, 1));
        let snap = m.snapshot();
        assert_eq!((snap.pool_misses, snap.pool_hits), (1, 1));
    }

    #[test]
    fn shelves_are_keyed_by_concrete_type() {
        let p = pool();
        let m = MetricsRegistry::default();
        {
            let mut a = p.vec::<u64>(&m);
            a.push(7);
        }
        // a different element type cannot see the shelved u64 vector
        let b = p.vec::<f64>(&m);
        assert_eq!(b.capacity(), 0);
        let a2 = p.vec::<u64>(&m);
        assert!(a2.capacity() > 0);
    }

    #[test]
    fn dense_spa_checkout_never_returns_stale_values() {
        let p = pool();
        let m = MetricsRegistry::default();
        let mut c = crate::par::Counters::default();
        {
            let mut spa = p.dense_spa::<f64>(16, 0.0, &m);
            spa.accumulate(3, 9.0, &crate::algebra::Plus, &mut c);
        }
        let spa = p.dense_spa::<f64>(16, 0.0, &m);
        assert_eq!(spa.get(3), None, "prior generation must be invisible");
        assert_eq!(p.stats().pool_hits, 1);
    }

    #[test]
    fn capacity_miss_grows_and_counts_an_alloc() {
        let p = pool();
        let m = MetricsRegistry::default();
        drop(p.dense_spa::<u32>(8, 0, &m));
        let before = p.stats();
        let spa = p.dense_spa::<u32>(1000, 0, &m); // grow in place
        assert!(spa.capacity() >= 1000);
        let d = p.stats().saturating_sub(&before);
        assert_eq!(d.pool_hits, 1, "growth is still a shelf hit");
        assert_eq!(d.allocs, 1, "but the growth is an allocation");
        assert!(d.alloc_bytes > 0);
        drop(spa);
        // shrink request: backing retained, no new allocation
        let before = p.stats();
        let spa = p.dense_spa::<u32>(4, 0, &m);
        assert!(spa.capacity() >= 1000);
        let d = p.stats().saturating_sub(&before);
        assert_eq!((d.pool_hits, d.allocs), (1, 0));
    }

    #[test]
    fn disabled_pool_always_allocates_and_shelves_nothing() {
        let p = Arc::new(WorkspacePool::new(false));
        let m = MetricsRegistry::default();
        {
            let mut v = p.vec::<usize>(&m);
            v.extend(0..50);
        }
        let v = p.vec::<usize>(&m);
        assert_eq!(v.capacity(), 0, "nothing may be recycled when disabled");
        let s = p.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (0, 2));
    }

    #[test]
    fn set_enabled_off_drains_the_shelves() {
        let p = pool();
        let m = MetricsRegistry::default();
        {
            let mut v = p.vec::<usize>(&m);
            v.extend(0..10);
        }
        p.set_enabled(false);
        p.set_enabled(true);
        let v = p.vec::<usize>(&m);
        assert_eq!(v.capacity(), 0, "drained shelf cannot serve hits");
    }

    #[test]
    fn filled_vec_matches_vec_macro_semantics() {
        let p = pool();
        let m = MetricsRegistry::default();
        {
            let mut v = p.filled_vec(6, 7u8, &m);
            assert_eq!(&*v, &[7u8; 6]);
            v[2] = 0;
        }
        let v = p.filled_vec(4, 9u8, &m);
        assert_eq!(&*v, &[9u8; 4], "stale contents must be overwritten");
    }

    #[test]
    fn nested_vec_keeps_inner_capacity_and_adjusts_len() {
        let p = pool();
        let m = MetricsRegistry::default();
        {
            let mut ob = p.nested_vec::<u32>(4, &m);
            ob[1].extend(0..64);
        }
        let ob = p.nested_vec::<u32>(4, &m);
        assert_eq!(ob.len(), 4);
        assert!(ob[1].is_empty());
        assert!(ob[1].capacity() >= 64, "inner outbox buffers are reused");
        let grown = p.nested_vec::<u32>(6, &m);
        assert_eq!(grown.len(), 6);
    }

    #[test]
    fn into_inner_detaches_from_the_pool() {
        let p = pool();
        let m = MetricsRegistry::default();
        let mut v = p.vec::<usize>(&m);
        v.push(1);
        let owned = v.into_inner();
        assert_eq!(owned, vec![1]);
        // it was not shelved
        assert_eq!(p.vec::<usize>(&m).capacity(), 0);
    }
}
