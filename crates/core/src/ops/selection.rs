//! Adaptive kernel selection: direction-optimizing traversal heuristics.
//!
//! The paper's kernels exist in push (SpMSpV, §III-D) and pull (SpMV)
//! forms. This module holds the *decision layer* that picks one per
//! iteration, the way CombBLAS 2.0 / Beamer's direction-optimizing BFS
//! switch push/pull: a traversal level decides its [`Direction`] and
//! nothing else ([`decide_direction`]). Push expands the frontier's edges;
//! pull scans unvisited destinations with early exit. Push work is
//! ~`nnz(frontier) × avg_degree`; pull work is ~`n` visited-bit probes plus
//! the unexplored vertices' in-edge scans. A heavy frontier flips to pull,
//! a small one back to push. The frontier's storage follows from the
//! direction (a pull reads a bitmap, a push a sorted index list), and the
//! push's SpMSpV merge is the caller's
//! [`crate::ops::spmspv::MergeStrategy`].
//!
//! Every decision is pure integer arithmetic on globally-agreed counts
//! (`nnz(frontier)`, unexplored vertices, `n`, average degree), so the
//! shared and distributed backends — and every locale within the
//! distributed one — reach the same choice from the same inputs. The
//! hysteresis rule is *switch only when the target direction's own stay
//! condition holds*: at any stationary density the sequence of decisions
//! changes at most once and can never oscillate.
//!
//! [`pull_first_visitor`] is the shared-memory pull kernel: a scan over
//! any [`RowView`] of `A`'s in-neighbours — the matrix's kept
//! [`InNeighbours`], or the rows of an explicit `Aᵀ` — (destination-major)
//! that claims, for each unvisited destination, its **minimum**
//! in-frontier in-neighbor and exits the row early — the same parent the
//! push kernel's min-claim keeps, which is what makes auto/push/pull
//! bit-identical.

use crate::container::{CsrMatrix, DenseVec, InNeighbours, SparseVec};
use crate::error::{check_dims, Result};
use crate::par::ExecCtx;

/// Phase: pull-direction destination scan.
pub const PHASE_PULL: &str = "pull";

/// How a traversal picks its per-iteration direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Decide per iteration from measured frontier density.
    #[default]
    Auto,
    /// Always push (SpMSpV over the sparse frontier).
    Push,
    /// Always pull (transpose scan / dense SpMV).
    Pull,
}

impl SelectionPolicy {
    /// Stable lowercase name (CLI flags, trace attributes).
    pub fn name(self) -> &'static str {
        match self {
            SelectionPolicy::Auto => "auto",
            SelectionPolicy::Push => "push",
            SelectionPolicy::Pull => "pull",
        }
    }

    /// Parse a CLI spelling (`auto` | `push` | `pull`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(SelectionPolicy::Auto),
            "push" => Some(SelectionPolicy::Push),
            "pull" => Some(SelectionPolicy::Pull),
            _ => None,
        }
    }
}

/// The traversal direction chosen for one iteration, recorded verbatim as
/// the `dir=` attribute of the backend's `select` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Frontier-driven SpMSpV: expand the frontier's out-edges.
    Push,
    /// Destination-driven scan: probe unvisited vertices' in-edges.
    Pull,
}

impl Direction {
    /// Stable lowercase name (`dir=` trace attribute).
    pub fn name(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
        }
    }
}

/// Tuning knobs for the direction heuristic. The defaults follow Beamer's
/// direction-optimizing BFS constants (α = 14, β = 24) with the edge
/// estimate normalized to a reference degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionThresholds {
    /// Push→pull (Beamer's α): pull when
    /// `nnz_f · avg_deg · pull_alpha ≥ unexplored · ref_degree`.
    pub pull_alpha: usize,
    /// Pull→push (Beamer's β): push when `nnz_f · push_beta < n`.
    pub push_beta: usize,
    /// Degree normalization for `pull_alpha`'s edge estimate: denser
    /// graphs (higher `avg_deg`) flip to pull at proportionally smaller
    /// frontiers, because early exit saves more per destination.
    pub ref_degree: usize,
}

impl Default for SelectionThresholds {
    fn default() -> Self {
        SelectionThresholds { pull_alpha: 14, push_beta: 24, ref_degree: 8 }
    }
}

impl SelectionThresholds {
    /// Thresholds for a machine with `p` locales. On distributed memory
    /// the pull level is the better-aggregated kernel: two bitmap
    /// gathers (visited over the row range, frontier over the column
    /// range) and one claim scatter, versus the push level's mask gather
    /// (the mask's bits over each locale's column range, fetched before
    /// it multiplies) *plus* frontier gather *plus* per-owner scatter of
    /// the allowed claims. A level's fixed communication cost therefore
    /// grows with `p` while its local work shrinks like `1/p`, so the
    /// band where push wins narrows **quadratically**: both `pull_alpha`
    /// and `push_beta` scale by `p²` (pull triggers at proportionally
    /// smaller frontiers, and the tail must be proportionally smaller
    /// before flipping back). `p = 1` — and every shared-memory backend —
    /// is exactly [`Default`]. The `p²` is a scaled Beamer constant, not
    /// a fitted crossover: with the push masking at its sender, static
    /// push is the faster BFS on the `--fig direction` input at 1–16
    /// locales, as it is on shared memory.
    pub fn for_locales(p: usize) -> Self {
        let d = SelectionThresholds::default();
        let p2 = p.max(1).saturating_mul(p.max(1));
        SelectionThresholds {
            pull_alpha: d.pull_alpha.saturating_mul(p2),
            push_beta: d.push_beta.saturating_mul(p2),
            ..d
        }
    }
}

/// Direction heuristic with oscillation-proof hysteresis.
///
/// `to_pull` holds when the frontier's estimated out-edges
/// (`nnz_f · avg_deg`, normalized by `ref_degree`) reach `1/pull_alpha`
/// of the unexplored vertices; `to_push` holds when the frontier is
/// smaller than `n / push_beta`. The β rule has priority: a sub-`n/β`
/// frontier always runs push (that covers the traversal tail, where the
/// unexplored count is tiny and `to_pull` is vacuously easy), and while
/// it holds the push→pull edge is blocked. At any stationary
/// `(nnz_f, unexplored)` pair the direction therefore changes at most
/// once and then stays fixed — densities landing exactly on a threshold
/// included: β-true forces Push and keeps it; β-false makes Pull
/// absorbing (entered only if `to_pull`).
pub fn decide_direction(
    prev: Direction,
    nnz_f: usize,
    unexplored: usize,
    n: usize,
    avg_deg: usize,
    t: &SelectionThresholds,
) -> Direction {
    let edges = nnz_f.saturating_mul(avg_deg.max(1));
    let to_pull = nnz_f > 0
        && edges.saturating_mul(t.pull_alpha) >= unexplored.saturating_mul(t.ref_degree.max(1));
    let to_push = nnz_f.saturating_mul(t.push_beta) < n.max(1);
    match prev {
        Direction::Push if to_pull && !to_push => Direction::Pull,
        Direction::Pull if to_push => Direction::Push,
        stay => stay,
    }
}

/// One iteration's [`Direction`] under a policy: `Push`/`Pull` pin it,
/// `Auto` runs [`decide_direction`].
pub fn decide(
    policy: SelectionPolicy,
    prev: Direction,
    nnz_f: usize,
    unexplored: usize,
    n: usize,
    avg_deg: usize,
    t: &SelectionThresholds,
) -> Direction {
    match policy {
        SelectionPolicy::Push => Direction::Push,
        SelectionPolicy::Pull => Direction::Pull,
        SelectionPolicy::Auto => decide_direction(prev, nnz_f, unexplored, n, avg_deg, t),
    }
}

/// The rows a pull scans: row `j` lists `j`'s in-neighbours, ascending.
/// A matrix's kept [`InNeighbours`] are one; a [`CsrMatrix`] holding `Aᵀ`
/// is another, its rows being `A`'s columns.
pub trait RowView: Sync {
    /// Destinations: one row each.
    fn nrows(&self) -> usize;
    /// Sources: every id a row lists is below this.
    fn ncols(&self) -> usize;
    /// Row `j`'s ids, ascending.
    fn row_ids(&self, j: usize) -> impl Iterator<Item = usize> + '_;
}

impl<T: Sync> RowView for CsrMatrix<T> {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }

    fn row_ids(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(j).0.iter().copied()
    }
}

impl RowView for InNeighbours {
    fn nrows(&self) -> usize {
        self.lists()
    }

    fn ncols(&self) -> usize {
        self.sources()
    }

    fn row_ids(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        self.list(j).iter().map(|&i| i as usize)
    }
}

/// Pull-direction BFS kernel (shared memory): for every **unvisited**
/// destination `j`, scan row `j` of `rows` (its in-neighbors, in
/// ascending order) and claim the first — i.e. minimum — in-frontier
/// neighbor as `j`'s parent, exiting the row early on the hit.
///
/// The output stores `parent` per reached destination, exactly like
/// [`crate::ops::spmspv::spmspv_first_visitor`] under a deterministic
/// schedule: both produce the minimum in-frontier in-neighbor, which is
/// the bit-identity contract the differential tests pin. Work is charged
/// to [`PHASE_PULL`]: one random access per visited-bit probe and per
/// in-neighbor frontier probe, so the simulator prices the early exit
/// that makes pull win on heavy frontiers.
pub fn pull_first_visitor(
    rows: &impl RowView,
    frontier: &DenseVec<bool>,
    visited: &DenseVec<bool>,
    ctx: &ExecCtx,
) -> Result<SparseVec<usize>> {
    check_dims("frontier length vs matrix cols", rows.ncols(), frontier.len())?;
    check_dims("visited length vs matrix rows", rows.nrows(), visited.len())?;
    let n = rows.nrows();
    let fbits = frontier.as_slice();
    let vbits = visited.as_slice();
    let nnz_f = fbits.iter().filter(|&&b| b).count();
    let _op =
        ctx.trace_op("pull_first_visitor", nnz_f as u64, &[("nrows", n), ("ncols", rows.ncols())]);
    // Destination-major scan: each task owns a contiguous row range, so
    // concatenating per-task outputs in task order yields globally sorted
    // indices — and the claims are per-row local, so the result is
    // deterministic under any real thread count (unlike push's atomics).
    let parts = ctx.parallel_for(PHASE_PULL, n, |r, c| {
        let (mut inds, mut vals) = (ctx.ws_vec::<usize>(), ctx.ws_vec::<usize>());
        for j in r {
            c.rand_access += 1; // visited-bit probe
            if vbits[j] {
                continue;
            }
            for u in rows.row_ids(j) {
                c.rand_access += 1; // frontier-bit probe
                if fbits[u] {
                    inds.push(j);
                    vals.push(u);
                    c.elems += 1;
                    break; // early exit: first hit is the min in-neighbor
                }
            }
        }
        (inds, vals)
    });
    let nnz = parts.iter().map(|(inds, _)| inds.len()).sum();
    let (mut indices, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for (i, v) in &parts {
        indices.extend_from_slice(i);
        values.extend_from_slice(v);
    }
    SparseVec::from_sorted(n, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::mask::VecMask;
    use crate::ops::spmspv::{spmspv_first_visitor, SpMSpVOpts};
    use crate::ops::transpose::transpose;

    const T: SelectionThresholds =
        SelectionThresholds { pull_alpha: 14, push_beta: 24, ref_degree: 8 };

    #[test]
    fn direction_switches_on_heavy_frontier_and_back_on_small() {
        let n = 1000;
        // tiny frontier: stays push
        assert_eq!(decide_direction(Direction::Push, 1, n - 1, n, 8, &T), Direction::Push);
        // heavy frontier (past n/24 and past unexplored/14): flips to pull
        assert_eq!(decide_direction(Direction::Push, 200, 500, n, 8, &T), Direction::Pull);
        // small tail frontier: pull returns to push
        assert_eq!(decide_direction(Direction::Pull, 10, 30, n, 8, &T), Direction::Push);
    }

    #[test]
    fn direction_never_oscillates_at_stationary_density() {
        // sweep a grid of densities; from any start, two applications of
        // the rule at a fixed density must reach a fixed point
        let n = 960;
        for nnz in [0, 1, n / 24, n / 24 + 1, n / 8, n / 2, n] {
            for unexplored in [0, 1, n / 14, n / 2, n] {
                for avg_deg in [0, 1, 8, 50] {
                    for start in [Direction::Push, Direction::Pull] {
                        let d1 = decide_direction(start, nnz, unexplored, n, avg_deg, &T);
                        let d2 = decide_direction(d1, nnz, unexplored, n, avg_deg, &T);
                        let d3 = decide_direction(d2, nnz, unexplored, n, avg_deg, &T);
                        assert_eq!(d2, d3, "oscillation at nnz={nnz} u={unexplored} d={avg_deg}");
                    }
                }
            }
        }
    }

    #[test]
    fn policy_pins_direction() {
        let d = decide(SelectionPolicy::Pull, Direction::Push, 1, 10, 1000, 8, &T);
        assert_eq!(d, Direction::Pull);
    }

    #[test]
    fn pull_matches_push_parents_on_random_graphs() {
        for seed in [3, 17, 99] {
            let a = gen::erdos_renyi(300, 6, seed);
            let ctx = ExecCtx::new(4, 1);
            let at = transpose(&a, &ctx).unwrap();
            // frontier = every third vertex, visited = every fifth
            let visited = DenseVec::from_fn(300, |i| i % 5 == 0);
            let f_inds: Vec<usize> = (0..300).filter(|i| i % 3 == 0).collect();
            let fx = SparseVec::from_sorted(300, f_inds.clone(), f_inds.clone()).unwrap();
            let fbits = DenseVec::from_fn(300, |i| i % 3 == 0);
            let not_visited = VecMask::dense(&visited).complement();
            let push =
                spmspv_first_visitor(&a, &fx, Some(&not_visited), SpMSpVOpts::default(), &ctx)
                    .unwrap();
            let pull = pull_first_visitor(&at, &fbits, &visited, &ctx).unwrap();
            assert_eq!(push, pull, "seed {seed}");
        }
    }

    #[test]
    fn pull_respects_visited_and_exits_early() {
        // star: 0 -> {1..=4}; transpose rows 1..=4 each hold in-neighbor 0
        let a =
            CsrMatrix::from_triplets(5, 5, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)])
                .unwrap();
        let ctx = ExecCtx::serial();
        let at = transpose(&a, &ctx).unwrap();
        let fbits = DenseVec::from_fn(5, |i| i == 0);
        let visited = DenseVec::from_fn(5, |i| i <= 1); // 1 already claimed
        let y = pull_first_visitor(&at, &fbits, &visited, &ctx).unwrap();
        assert_eq!(y.indices(), &[2, 3, 4]);
        assert!(y.values().iter().all(|&p| p == 0));
    }

    #[test]
    fn pull_dimension_mismatch_is_error() {
        let a = gen::erdos_renyi(10, 2, 7);
        let ctx = ExecCtx::serial();
        let bad = DenseVec::filled(11, false);
        let ok = DenseVec::filled(10, false);
        assert!(pull_first_visitor(&a, &bad, &ok, &ctx).is_err());
        assert!(pull_first_visitor(&a, &ok, &bad, &ctx).is_err());
    }

    #[test]
    fn policy_parses_cli_spellings() {
        assert_eq!(SelectionPolicy::parse("auto"), Some(SelectionPolicy::Auto));
        assert_eq!(SelectionPolicy::parse("push"), Some(SelectionPolicy::Push));
        assert_eq!(SelectionPolicy::parse("pull"), Some(SelectionPolicy::Pull));
        assert_eq!(SelectionPolicy::parse("sideways"), None);
        assert_eq!(SelectionPolicy::Auto.name(), "auto");
        assert_eq!(Direction::Push.name(), "push");
    }
}
