//! Inspector–executor communication schedules.
//!
//! The iterative drivers (BFS, PageRank, SSSP, …) run the same
//! distributed kernels over the same matrix dozens of times, and every
//! iteration used to re-derive the same remote-access pattern: which grid
//! peers a locale gathers from, each locale's global row range, where its
//! mask bits live. Following the PGAS inspector–executor idea, this
//! module compiles that pattern **once** into a [`CommSchedule`] and
//! replays it on subsequent iterations:
//!
//! * the **inspector** is the plan constructor (`GatherPlan::build` and
//!   friends) — it walks the grid/distribution metadata and records the
//!   access pattern;
//! * the **executor** is the kernel itself, refactored to *always* run
//!   from a plan. A freshly built plan and a replayed one drive the exact
//!   same code path, so replay is bit-invisible by construction: same
//!   messages in the same order, same counters, same results. The only
//!   thing a replay skips is the inspection. Because the plan already
//!   says who needs what from whom, no executor runs an index-exchange
//!   round before it moves data.
//!
//! Schedules are cached per [`crate::DistCtx`] keyed by
//! `(op, grid shape, frontier structure class)` and stamped with the
//! matrix [`generation`](crate::DistCsrMatrix::generation) plus an
//! op-specific fingerprint (today only SUMMA's, of the operand shapes). A
//! stamp mismatch invalidates the entry and rebuilds — rebuilding a
//! matrix or multiplying a different shape can never replay a stale
//! pattern.
//!
//! [`DistCtx::set_schedules`]`(false)` (the binaries' `GBLAS_SCHED=off`)
//! disables caching for ablations and differential tests: every call
//! builds fresh, and the `sched_*` metrics stay untouched.

use crate::grid::{BlockDist, ProcGrid};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The structural class of the vector/frontier an op consumes. Schedules
/// depend on which *kind* of access pattern an op runs — not the frontier
/// contents — so the class is part of the cache key: a push iteration
/// over a sparse frontier and a pull iteration over a bitmap coexist in
/// the cache without thrashing each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontierClass {
    /// Sparse vector input (push SpMSpV).
    Sparse,
    /// Dense bitmap input (pull).
    Bitmap,
    /// Dense value vector input.
    Dense,
    /// A distributed matrix operand (sparse SUMMA).
    Mat,
}

/// Cache key: which op, on which grid shape, over which input class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedKey {
    /// Static op name (`"gather_rows"`, `"pull_gather"`, …).
    pub op: &'static str,
    /// `(pr, pc)` of the process grid.
    pub grid: (usize, usize),
    /// Input structure class.
    pub class: FrontierClass,
}

/// The overlap inspector both bitmap gathers share: the nonempty
/// `(owner, lo, hi)` global windows of `dist`'s blocks over `r`, by owner.
pub fn block_overlaps(r: Range<usize>, dist: &BlockDist) -> Vec<(usize, usize, usize)> {
    let window = |o: usize| (o, dist.range(o).start.max(r.start), dist.range(o).end.min(r.end));
    (0..dist.blocks()).map(window).filter(|&(_, lo, hi)| lo < hi).collect()
}

/// The compiled gather pattern of the row-aligned kernels (SpMSpV push,
/// the batched expand, dense SpMV): which peers each locale assembles
/// from, each locale's row range, and where the output-mask bits over its
/// column range live. An owner needs no request to know what to send: a
/// row peer always needs its whole shard.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherPlan {
    /// Per locale: its grid-row peers in ascending locale order,
    /// **including itself** — the exact order the assembly loop walks, so
    /// the own-shard position is preserved.
    pub row_peers: Vec<Vec<usize>>,
    /// Per locale: its global row range `(start, end)`.
    pub row_ranges: Vec<(usize, usize)>,
    /// Per locale: the [`block_overlaps`] of its column range with the
    /// output distribution — the windows of mask bits it copies from
    /// their owners before a masked push multiplies.
    pub mask_windows: Vec<Vec<(usize, usize, usize)>>,
}

impl GatherPlan {
    /// Inspector: derive the gather pattern from the grid, the `locale ->
    /// row range` and `locale -> column range` maps, and the output's
    /// distribution. Pure metadata walk; no communication.
    pub fn build(
        grid: ProcGrid,
        row_range: impl Fn(usize) -> Range<usize>,
        col_range: impl Fn(usize) -> Range<usize>,
        out_dist: &BlockDist,
    ) -> Self {
        let p = grid.locales();
        let row_peers = (0..p).map(|l| grid.row_locales(grid.coords(l).0).collect()).collect();
        let row_ranges = (0..p).map(&row_range).map(|r| (r.start, r.end)).collect();
        let mask_windows = (0..p).map(|l| block_overlaps(col_range(l), out_dist)).collect();
        GatherPlan { row_peers, row_ranges, mask_windows }
    }
}

/// The compiled gather pattern of the pull kernel: per locale, the
/// `visited` segments over its row range and the `frontier` block
/// overlaps over its column range. Fully determined by the matrix
/// dimensions, grid, and vector distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PullPlan {
    /// Per locale: `(source locale, segment length)` for the visited-bit
    /// gather, in assembly order (ascending grid-row peers, self
    /// included).
    pub visited_segs: Vec<Vec<(usize, usize)>>,
    /// Per locale: `(owner, lo, hi)` global index windows of the frontier
    /// blocks overlapping its column range, in ascending owner order.
    pub frontier_overlaps: Vec<Vec<(usize, usize, usize)>>,
}

impl PullPlan {
    /// Inspector for the pull gather. `seg_len(src)` is the length of
    /// `src`'s vector segment; `in_dist` distributes the frontier.
    pub fn build(
        grid: ProcGrid,
        col_range: impl Fn(usize) -> Range<usize>,
        seg_len: impl Fn(usize) -> usize,
        in_dist: &BlockDist,
    ) -> Self {
        let p = grid.locales();
        let mut visited_segs = Vec::with_capacity(p);
        let mut frontier_overlaps = Vec::with_capacity(p);
        for l in 0..p {
            let (r, _) = grid.coords(l);
            visited_segs.push(grid.row_locales(r).map(|src| (src, seg_len(src))).collect());
            frontier_overlaps.push(block_overlaps(col_range(l), in_dist));
        }
        PullPlan { visited_segs, frontier_overlaps }
    }
}

/// The compiled stage structure of a multi-stage sparse SUMMA: the
/// k-blocking of the inner dimension and, per stage, which operand
/// blocks feed it. On a rectangular `pr×pc` grid `A`'s column split and
/// `B`'s row split disagree, so the stage bounds are the sorted union of
/// both splits (at most `pr + pc - 1` intervals) — each interval then
/// lies inside exactly **one** `A` column-block and one `B` row-block,
/// which is what makes the per-stage broadcasts well-defined without any
/// `lcm`-sized re-blocking. Purely shape-derived (dimensions + grid), so
/// iterative callers (Markov clustering, masked triangles) replay it
/// across fresh matrices of the same shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaPlan {
    /// Half-open inner-dimension interval per stage, ascending.
    pub bounds: Vec<(usize, usize)>,
    /// Per stage: the grid *column* of the `A` blocks covering it.
    pub ka: Vec<usize>,
    /// Per stage: the grid *row* of the `B` blocks covering it.
    pub kb: Vec<usize>,
}

impl SummaPlan {
    /// Inspector: union the two inner-dimension splits into the stage
    /// list. `n` is the shared inner dimension.
    pub fn build(n: usize, a_cols: &BlockDist, b_rows: &BlockDist) -> Self {
        let mut cuts: Vec<usize> = (0..a_cols.blocks())
            .map(|k| a_cols.range(k).start)
            .chain((0..b_rows.blocks()).map(|k| b_rows.range(k).start))
            .chain(std::iter::once(n))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut bounds = Vec::new();
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo < hi {
                bounds.push((lo, hi));
                ka.push(a_cols.owner(lo));
                kb.push(b_rows.owner(lo));
            }
        }
        SummaPlan { bounds, ka, kb }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.bounds.len()
    }
}

/// FNV-1a 64 over an index slice — the fingerprint SUMMA keys its stage
/// plan on (over the operand dimensions). Full-content, so two different
/// slices cannot share a plan short of a 64-bit collision.
pub fn fingerprint_indices(indices: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in indices {
        for b in (i as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ (indices.len() as u64)
}

/// The plan payload of one cached schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanData {
    /// Row-aligned gather (SpMSpV push, batched expand).
    Gather(GatherPlan),
    /// Pull-direction bitmap gather.
    Pull(PullPlan),
    /// Multi-stage SUMMA k-blocking.
    Summa(SummaPlan),
}

impl PlanData {
    /// The gather plan, panicking if this schedule holds another kind —
    /// keys are per-op, so a mismatch is a programming error.
    pub fn gather(&self) -> &GatherPlan {
        match self {
            PlanData::Gather(p) => p,
            other => panic!("schedule kind mismatch: wanted Gather, got {other:?}"),
        }
    }

    /// The pull plan (see [`PlanData::gather`] on mismatches).
    pub fn pull(&self) -> &PullPlan {
        match self {
            PlanData::Pull(p) => p,
            other => panic!("schedule kind mismatch: wanted Pull, got {other:?}"),
        }
    }

    /// The SUMMA stage plan (see [`PlanData::gather`] on mismatches).
    pub fn summa(&self) -> &SummaPlan {
        match self {
            PlanData::Summa(p) => p,
            other => panic!("schedule kind mismatch: wanted Summa, got {other:?}"),
        }
    }
}

/// One cached schedule: the compiled plan plus the stamps that gate its
/// reuse.
#[derive(Debug, Clone)]
pub struct CommSchedule {
    /// Generation of the matrix the plan was inspected against.
    pub mat_gen: u64,
    /// Op-specific auxiliary fingerprint (0 when unused; SUMMA hashes its
    /// operand dimensions here).
    pub aux: u64,
    /// The compiled pattern.
    pub plan: Arc<PlanData>,
}

/// What [`ScheduleCache::resolve`] did — stamped on op spans as the
/// `sched` attribute and counted in the metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOutcome {
    /// Cache miss: the inspector ran and the plan was cached.
    Built,
    /// Cache hit: the inspector was skipped.
    Replayed,
    /// Stale stamp: the cached plan was discarded and rebuilt.
    Invalidated,
    /// Scheduling disabled: built fresh, not cached.
    Off,
}

impl SchedOutcome {
    /// Attribute value for trace spans.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedOutcome::Built => "built",
            SchedOutcome::Replayed => "replayed",
            SchedOutcome::Invalidated => "invalidated",
            SchedOutcome::Off => "off",
        }
    }
}

/// The per-[`crate::DistCtx`] schedule store. Resolution happens on the
/// driver thread between supersteps, so the mutex is uncontended; it
/// exists so `DistCtx` stays `Sync`.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: Mutex<HashMap<SchedKey, CommSchedule>>,
}

impl ScheduleCache {
    /// Look up (or build) the schedule for `key`. `mat_gen`/`aux` are the
    /// freshness stamps; `build` runs the inspector on miss or
    /// invalidation. When `enabled` is false the inspector always runs
    /// and nothing is cached.
    pub fn resolve(
        &self,
        enabled: bool,
        key: SchedKey,
        mat_gen: u64,
        aux: u64,
        build: impl FnOnce() -> PlanData,
    ) -> (Arc<PlanData>, SchedOutcome) {
        if !enabled {
            return (Arc::new(build()), SchedOutcome::Off);
        }
        let mut entries = self.entries.lock();
        let outcome = match entries.get(&key) {
            Some(s) if s.mat_gen == mat_gen && s.aux == aux => {
                return (Arc::clone(&s.plan), SchedOutcome::Replayed);
            }
            Some(_) => SchedOutcome::Invalidated,
            None => SchedOutcome::Built,
        };
        let plan = Arc::new(build());
        entries.insert(key, CommSchedule { mat_gen, aux, plan: Arc::clone(&plan) });
        (plan, outcome)
    }

    /// Number of cached schedules (test introspection).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no schedule is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drop every cached schedule.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(op: &'static str) -> SchedKey {
        SchedKey { op, grid: (2, 2), class: FrontierClass::Sparse }
    }

    fn plan() -> PlanData {
        let rows = |l: usize| (l * 10)..(l * 10 + 10);
        PlanData::Gather(GatherPlan::build(ProcGrid::new(2, 2), rows, rows, &BlockDist::new(40, 4)))
    }

    #[test]
    fn build_then_replay_then_invalidate() {
        let cache = ScheduleCache::default();
        let (_, o) = cache.resolve(true, key("g"), 7, 0, plan);
        assert_eq!(o, SchedOutcome::Built);
        let (_, o) = cache.resolve(true, key("g"), 7, 0, || panic!("must not rebuild"));
        assert_eq!(o, SchedOutcome::Replayed);
        // a moved generation discards the entry and rebuilds
        let (_, o) = cache.resolve(true, key("g"), 8, 0, plan);
        assert_eq!(o, SchedOutcome::Invalidated);
        let (_, o) = cache.resolve(true, key("g"), 8, 0, || panic!("must not rebuild"));
        assert_eq!(o, SchedOutcome::Replayed);
        // so does a changed aux fingerprint
        let (_, o) = cache.resolve(true, key("g"), 8, 5, plan);
        assert_eq!(o, SchedOutcome::Invalidated);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_always_builds_and_stores_nothing() {
        let cache = ScheduleCache::default();
        for _ in 0..3 {
            let (_, o) = cache.resolve(false, key("g"), 1, 0, plan);
            assert_eq!(o, SchedOutcome::Off);
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_keys_coexist() {
        let cache = ScheduleCache::default();
        cache.resolve(true, key("g"), 1, 0, plan);
        cache.resolve(
            true,
            SchedKey { op: "g", grid: (2, 2), class: FrontierClass::Bitmap },
            1,
            0,
            plan,
        );
        cache.resolve(
            true,
            SchedKey { op: "h", grid: (2, 2), class: FrontierClass::Sparse },
            1,
            0,
            plan,
        );
        assert_eq!(cache.len(), 3);
        // all three replay independently
        for k in [
            key("g"),
            SchedKey { op: "g", grid: (2, 2), class: FrontierClass::Bitmap },
            SchedKey { op: "h", grid: (2, 2), class: FrontierClass::Sparse },
        ] {
            let (_, o) = cache.resolve(true, k, 1, 0, || panic!("must not rebuild"));
            assert_eq!(o, SchedOutcome::Replayed);
        }
    }

    #[test]
    fn gather_plan_mirrors_grid_topology() {
        let grid = ProcGrid::new(2, 3);
        // 30 columns in grid-column blocks of 10; the output's 6 blocks of 5
        let cols = |l: usize| (l % 3 * 10)..(l % 3 * 10 + 10);
        let p = GatherPlan::build(grid, |l| (l * 5)..(l * 5 + 5), cols, &BlockDist::new(30, 6));
        assert_eq!(p.row_peers.len(), 6);
        // locale 0 sits in grid row 0 with peers {0, 1, 2}, itself included
        assert_eq!(p.row_peers[0], vec![0, 1, 2]);
        assert_eq!(p.row_ranges[4], (20, 25));
        // locale 4 (grid column 1, columns 10..20) reads its mask bits from
        // output blocks 2 and 3
        assert_eq!(p.mask_windows[4], vec![(2, 10, 15), (3, 15, 20)]);
        assert_eq!(p.mask_windows[1], p.mask_windows[4]);
    }

    #[test]
    fn block_overlaps_cut_a_range_at_block_edges() {
        // 10 entries over 3 blocks: 0..3, 3..6, 6..10
        let dist = BlockDist::new(10, 3);
        assert_eq!(block_overlaps(2..8, &dist), vec![(0, 2, 3), (1, 3, 6), (2, 6, 8)]);
        assert_eq!(block_overlaps(3..6, &dist), vec![(1, 3, 6)]);
        assert!(block_overlaps(5..5, &dist).is_empty());
        // more blocks than entries: empty blocks never yield a window
        let sparse = BlockDist::new(2, 4);
        let all: Vec<_> = block_overlaps(0..2, &sparse);
        assert_eq!(all.iter().map(|w| w.2 - w.1).sum::<usize>(), 2);
        assert!(all.iter().all(|w| w.1 < w.2));
    }

    #[test]
    fn summa_plan_unions_rectangular_splits() {
        // inner dim 10; A's columns split 3 ways ({0,3,6}), B's rows split
        // 2 ways ({0,5}): the stage bounds are the union of both cuts
        let plan = SummaPlan::build(10, &BlockDist::new(10, 3), &BlockDist::new(10, 2));
        assert_eq!(plan.bounds, vec![(0, 3), (3, 5), (5, 6), (6, 10)]);
        assert_eq!(plan.ka, vec![0, 1, 1, 2]);
        assert_eq!(plan.kb, vec![0, 0, 1, 1]);
        assert!(plan.stages() < 3 + 2);
        // aligned splits (square grid) collapse to exactly pc stages
        let sq = SummaPlan::build(10, &BlockDist::new(10, 2), &BlockDist::new(10, 2));
        assert_eq!(sq.stages(), 2);
        assert_eq!(sq.bounds, vec![(0, 5), (5, 10)]);
    }

    #[test]
    fn fingerprint_separates_index_sets() {
        let a = fingerprint_indices(&[1, 2, 3]);
        let b = fingerprint_indices(&[1, 2, 4]);
        let c = fingerprint_indices(&[1, 2]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fingerprint_indices(&[1, 2, 3]));
    }
}
