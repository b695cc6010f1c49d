//! The four workloads: inputs, solves, checks, and kernel replays.
//!
//! Each workload is one closed loop with one client: the next solve starts
//! when the previous one returned. A workload owns its inputs (made from
//! the seed and nothing else), knows how to solve them in shared memory
//! and on the simulated cluster, how to hold an answer against the
//! independent oracle, and — for the traced run — how to replay one
//! solve's kernel calls itself so spans can be put around them.

use crate::oracle::{self, Adj};
use crate::spans::{Recorder, Tracer};
use crate::stats::{digest_i64, SplitMix64};
use crate::surface::{self as lib, BfsResult, DistCtx, DistGraph, ExecCtx, Graph, SimReport};

/// Distinct BFS sources a run cycles through.
const BFS_SOURCES: usize = 16;

/// BFS solves whose parent tree `BfsResult::validate` walks.
const VALIDATED_TREES: usize = 8;

/// Two answers agree when no entry differs by more than this (PageRank:
/// the library's own shared-vs-distributed tolerance).
const RANK_TOLERANCE: f64 = 1e-9;

pub trait Workload: Sized {
    /// What one solve returns.
    type Answer;
    /// What the loop keeps of a shared-memory answer to hold the
    /// distributed answer of the same input against.
    type Kept;

    const NAME: &'static str;
    /// Locale grid of the distributed leg.
    const GRID: (usize, usize);
    /// Distributed solves whose simulated time is summed into `sim_s`.
    const SIM_SOLVES: usize;
    /// The command line `gblas-cli` needs to solve the same input.
    fn cli_args(&self, seed: u64, quick: bool) -> Vec<String>;

    /// Generate the inputs, recording one span per set-up layer.
    fn generate(seed: u64, quick: bool, tracer: &mut impl Tracer) -> Result<Self, String>;
    /// Compute what [`Workload::check`] compares against. Untimed.
    fn prepare_oracle(&mut self);

    fn graph(&self) -> &Graph;
    fn dist_graph(&self) -> &DistGraph;
    /// The symmetric graph the masked-SpGEMM probe works on, if this
    /// workload's own solve multiplies one (else a quick-size stand-in).
    fn masked_mxm_operand(&self) -> Option<&Graph> {
        None
    }
    /// Likewise for the unmasked SpGEMM probe and MCL's operator chain.
    fn unmasked_mxm_operand(&self) -> Option<&Graph> {
        None
    }
    /// Distinct inputs the solves cycle through (solve `i` uses input
    /// `i % slots`).
    fn slots(&self) -> usize;

    fn solve(&self, i: usize, ctx: &ExecCtx) -> Result<Self::Answer, String>;
    fn solve_dist(&self, i: usize, dctx: &DistCtx) -> Result<(Self::Answer, SimReport), String>;

    /// Edges one solve processed, for `medges_per_s`.
    fn edges(&self, answer: &Self::Answer) -> u64;
    /// Iterations (levels, power steps, expansions) of one solve.
    fn iterations(&self, answer: &Self::Answer) -> usize;
    /// Whether a shared-memory answer matches the oracle.
    fn check(&self, i: usize, answer: &Self::Answer) -> bool;
    fn keep(&self, answer: &Self::Answer) -> Self::Kept;
    /// Whether a distributed answer matches the shared-memory one.
    fn agrees(&self, kept: &Self::Kept, dist: &Self::Answer) -> bool;

    /// Make the solve's kernel calls again, each inside a span, and report
    /// whether they reproduce `answer`.
    fn replay(
        &self,
        i: usize,
        answer: &Self::Answer,
        ctx: &ExecCtx,
        rec: &mut Recorder,
    ) -> Result<bool, String>;
}

/// A fresh simulated cluster for one distributed solve, locale bodies run
/// serially.
pub fn fresh_dist_ctx<W: Workload>() -> DistCtx {
    lib::dist_ctx(W::GRID.0 * W::GRID.1, true)
}

fn adj(a: &Graph) -> Adj<'_> {
    let (rowptr, colidx) = lib::csr_arrays(a);
    Adj { rowptr, colidx }
}

fn generated(tracer: &mut impl Tracer, gen: impl FnOnce() -> Graph) -> Graph {
    tracer.leaf("core.gen.graph", gen)
}

fn distributed(tracer: &mut impl Tracer, a: &Graph, grid: (usize, usize)) -> DistGraph {
    tracer.leaf("dist.mat.from_global", || lib::distribute(a, grid))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

// ---------------------------------------------------------------------
// bfs
// ---------------------------------------------------------------------

pub struct Bfs {
    a: Graph,
    da: DistGraph,
    sources: Vec<usize>,
    /// Digest of the oracle's levels, per source.
    expected: Vec<u64>,
}

impl Bfs {
    pub fn source(&self, i: usize) -> usize {
        self.sources[i % self.sources.len()]
    }

    /// The vertices of each level, ascending, from a level array.
    fn frontiers(levels: &[i64]) -> Vec<Vec<usize>> {
        let depth = levels.iter().copied().max().unwrap_or(-1);
        let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); (depth + 1) as usize];
        for (v, &l) in levels.iter().enumerate() {
            if l >= 0 {
                by_level[l as usize].push(v);
            }
        }
        by_level
    }
}

impl Workload for Bfs {
    type Answer = BfsResult;
    type Kept = u64;

    const NAME: &'static str = "bfs";
    const GRID: (usize, usize) = (2, 2);
    const SIM_SOLVES: usize = 16;

    fn cli_args(&self, seed: u64, quick: bool) -> Vec<String> {
        let scale = if quick { 12 } else { 18 };
        let (gen, seed, source) =
            (format!("rmat:{scale}:16"), seed.to_string(), self.sources[0].to_string());
        strings(&["bfs", "--gen", &gen, "--seed", &seed, "--source", &source])
    }

    fn generate(seed: u64, quick: bool, tracer: &mut impl Tracer) -> Result<Self, String> {
        let scale = if quick { 12 } else { 18 };
        let a = generated(tracer, || lib::gen_rmat(scale, 16, seed));
        let da = distributed(tracer, &a, Self::GRID);
        // Sources are sampled among vertices with an out-edge, so no solve
        // is the trivial one-vertex traversal.
        let adj = adj(&a);
        let mut rng = SplitMix64(seed ^ 0xB5F5);
        let mut sources = Vec::with_capacity(BFS_SOURCES);
        while sources.len() < BFS_SOURCES {
            let v = rng.below(adj.n());
            if adj.degree(v) > 0 && !sources.contains(&v) {
                sources.push(v);
            }
        }
        Ok(Bfs { a, da, sources, expected: Vec::new() })
    }

    fn prepare_oracle(&mut self) {
        let adj = adj(&self.a);
        self.expected =
            self.sources.iter().map(|&s| digest_i64(&oracle::bfs_levels(adj, s))).collect();
    }

    fn graph(&self) -> &Graph {
        &self.a
    }

    fn dist_graph(&self) -> &DistGraph {
        &self.da
    }

    fn slots(&self) -> usize {
        self.sources.len()
    }

    fn solve(&self, i: usize, ctx: &ExecCtx) -> Result<BfsResult, String> {
        lib::bfs(&self.a, self.source(i), ctx)
    }

    fn solve_dist(&self, i: usize, dctx: &DistCtx) -> Result<(BfsResult, SimReport), String> {
        lib::bfs_dist(&self.da, self.source(i), dctx)
    }

    fn edges(&self, answer: &BfsResult) -> u64 {
        oracle::edges_traversed(adj(&self.a), lib::bfs_levels(answer))
    }

    fn iterations(&self, answer: &BfsResult) -> usize {
        lib::bfs_levels(answer).iter().copied().max().unwrap_or(0).max(0) as usize
    }

    fn check(&self, i: usize, answer: &BfsResult) -> bool {
        // The parent tree is walked for the first solves only: it costs a
        // quarter of a solve.
        digest_i64(lib::bfs_levels(answer)) == self.expected[i % self.sources.len()]
            && (i >= VALIDATED_TREES || lib::bfs_validate(answer, &self.a, self.source(i)))
    }

    fn keep(&self, answer: &BfsResult) -> u64 {
        digest_i64(lib::bfs_levels(answer))
    }

    /// Levels only: parents depend on which thread claims a vertex first.
    fn agrees(&self, kept: &u64, dist: &BfsResult) -> bool {
        *kept == digest_i64(lib::bfs_levels(dist))
    }

    /// One first-visitor SpMSpV per level, from the frontier the returned
    /// levels imply, against the vertices of all earlier levels.
    fn replay(
        &self,
        _i: usize,
        answer: &BfsResult,
        ctx: &ExecCtx,
        rec: &mut Recorder,
    ) -> Result<bool, String> {
        let n = lib::nrows(&self.a);
        let frontiers = Self::frontiers(lib::bfs_levels(answer));
        let mut visited = vec![false; n];
        let mut same = true;
        for (level, frontier) in frontiers.iter().enumerate() {
            for &v in frontier {
                visited[v] = true;
            }
            let x = lib::sparse_from_sorted(n, frontier.clone())?;
            let mask = lib::dense_bool(visited.clone());
            let next = rec.leaf("core.ops.spmspv", || {
                lib::spmspv_first_visitor(&self.a, &x, Some(&mask), false, ctx)
            });
            let next = next?;
            let expected: &[usize] = frontiers.get(level + 1).map_or(&[], Vec::as_slice);
            same &= lib::sparse_indices(&next) == expected;
        }
        Ok(same)
    }
}

// ---------------------------------------------------------------------
// pagerank
// ---------------------------------------------------------------------

pub struct Pagerank {
    a: Graph,
    da: DistGraph,
    expected: Vec<f64>,
}

fn ranks_agree(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= RANK_TOLERANCE)
}

impl Workload for Pagerank {
    type Answer = (Vec<f64>, usize);
    type Kept = (Vec<f64>, usize);

    const NAME: &'static str = "pagerank";
    const GRID: (usize, usize) = (2, 2);
    const SIM_SOLVES: usize = 4;

    fn cli_args(&self, seed: u64, quick: bool) -> Vec<String> {
        let scale = if quick { 12 } else { 17 };
        strings(&["pagerank", "--gen", &format!("rmat:{scale}:16"), "--seed", &seed.to_string()])
    }

    fn generate(seed: u64, quick: bool, tracer: &mut impl Tracer) -> Result<Self, String> {
        let scale = if quick { 12 } else { 17 };
        let a = generated(tracer, || lib::gen_rmat(scale, 16, seed));
        let da = distributed(tracer, &a, Self::GRID);
        Ok(Pagerank { a, da, expected: Vec::new() })
    }

    fn prepare_oracle(&mut self) {
        let (damping, tolerance, cap) = lib::pagerank_defaults();
        self.expected = oracle::pagerank(adj(&self.a), damping, tolerance, cap);
    }

    fn graph(&self) -> &Graph {
        &self.a
    }

    fn dist_graph(&self) -> &DistGraph {
        &self.da
    }

    fn slots(&self) -> usize {
        1
    }

    fn solve(&self, _i: usize, ctx: &ExecCtx) -> Result<Self::Answer, String> {
        lib::pagerank(&self.a, ctx)
    }

    fn solve_dist(&self, _i: usize, dctx: &DistCtx) -> Result<(Self::Answer, SimReport), String> {
        lib::pagerank_dist(&self.da, dctx)
    }

    fn edges(&self, _answer: &Self::Answer) -> u64 {
        lib::nnz(&self.a) as u64
    }

    fn iterations(&self, answer: &Self::Answer) -> usize {
        answer.1
    }

    fn check(&self, _i: usize, answer: &Self::Answer) -> bool {
        let sum: f64 = answer.0.iter().sum();
        ranks_agree(&answer.0, &self.expected) && (sum - 1.0).abs() <= 1e-9
    }

    fn keep(&self, answer: &Self::Answer) -> Self::Kept {
        answer.clone()
    }

    fn agrees(&self, kept: &Self::Kept, dist: &Self::Answer) -> bool {
        kept.1 == dist.1 && ranks_agree(&kept.0, &dist.0)
    }

    /// The power iteration through the free kernels: two maps and a row
    /// reduce for the stochastic weights, one SpMV per step.
    fn replay(
        &self,
        _i: usize,
        answer: &Self::Answer,
        ctx: &ExecCtx,
        rec: &mut Recorder,
    ) -> Result<bool, String> {
        let (damping, tolerance, cap) = lib::pagerank_defaults();
        let n = lib::nrows(&self.a);
        let nf = n as f64;
        let ones = rec.leaf("core.ops.mat_map", || lib::map_mat(&self.a, &|_, _, _| 1.0, ctx));
        let outdeg = rec.leaf("core.ops.reduce_rows", || lib::reduce_rows_plus(&ones, ctx));
        let w =
            rec.leaf("core.ops.mat_map", || lib::map_mat(&ones, &|i, _, _| 1.0 / outdeg[i], ctx));
        let mut rank = vec![1.0 / nf; n];
        let mut iters = cap;
        for iter in 1..=cap {
            let dangling: f64 = (0..n).filter(|&i| outdeg[i] == 0.0).map(|i| rank[i]).sum();
            let x = lib::dense_f64(rank.clone());
            let spread = rec.leaf("core.ops.spmv", || lib::spmv_col(&w, &x, ctx));
            let spread = spread?;
            let spread = lib::dense_values(&spread);
            let mut diff = 0.0;
            let mut next = vec![0.0; n];
            for v in 0..n {
                let r = (1.0 - damping) / nf + damping * (spread[v] + dangling / nf);
                diff += (r - rank[v]).abs();
                next[v] = r;
            }
            rank = next;
            if diff < tolerance {
                iters = iter;
                break;
            }
        }
        Ok(iters == answer.1 && ranks_agree(&rank, &answer.0))
    }
}

// ---------------------------------------------------------------------
// triangles
// ---------------------------------------------------------------------

pub struct Triangles {
    a: Graph,
    da: DistGraph,
    expected: u64,
}

impl Workload for Triangles {
    type Answer = u64;
    type Kept = u64;

    const NAME: &'static str = "triangles";
    const GRID: (usize, usize) = (2, 3);
    const SIM_SOLVES: usize = 4;

    fn cli_args(&self, seed: u64, quick: bool) -> Vec<String> {
        let scale = if quick { 10 } else { 14 };
        let gen = format!("rmat:{scale}:8");
        strings(&["triangles", "--gen", &gen, "--symmetrize", "--seed", &seed.to_string()])
    }

    fn generate(seed: u64, quick: bool, tracer: &mut impl Tracer) -> Result<Self, String> {
        let scale = if quick { 10 } else { 14 };
        let directed = generated(tracer, || lib::gen_rmat(scale, 8, seed));
        let a =
            tracer.leaf("core.container.symmetrize", || lib::csr_from_entries(&directed, true))?;
        let da = distributed(tracer, &a, Self::GRID);
        Ok(Triangles { a, da, expected: 0 })
    }

    fn prepare_oracle(&mut self) {
        self.expected = oracle::triangle_count(adj(&self.a));
    }

    fn graph(&self) -> &Graph {
        &self.a
    }

    fn dist_graph(&self) -> &DistGraph {
        &self.da
    }

    fn slots(&self) -> usize {
        1
    }

    fn masked_mxm_operand(&self) -> Option<&Graph> {
        Some(&self.a)
    }

    fn solve(&self, _i: usize, ctx: &ExecCtx) -> Result<u64, String> {
        lib::triangle_count(&self.a, ctx)
    }

    fn solve_dist(&self, _i: usize, dctx: &DistCtx) -> Result<(u64, SimReport), String> {
        lib::triangle_count_dist(&self.da, dctx)
    }

    fn edges(&self, _answer: &u64) -> u64 {
        lib::nnz(&self.a) as u64
    }

    fn iterations(&self, _answer: &u64) -> usize {
        1
    }

    fn check(&self, _i: usize, answer: &u64) -> bool {
        *answer == self.expected
    }

    fn keep(&self, answer: &u64) -> u64 {
        *answer
    }

    fn agrees(&self, kept: &u64, dist: &u64) -> bool {
        kept == dist
    }

    /// `sum(C)` with `C⟨L⟩ = L · Lᵀ`, `L = tril(A)`.
    fn replay(
        &self,
        _i: usize,
        answer: &u64,
        ctx: &ExecCtx,
        rec: &mut Recorder,
    ) -> Result<bool, String> {
        let l = rec.leaf("core.ops.select", || lib::select_lower(&self.a, ctx));
        let u = rec.leaf("core.ops.transpose", || lib::transpose(&l, ctx));
        let u = u?;
        let c = rec.leaf("core.ops.mxm", || lib::mxm_masked_count(&l, &u, &l, ctx));
        let c = c?;
        let count = rec.leaf("core.ops.reduce", || lib::reduce_all_u64(&c, ctx));
        Ok(count == *answer)
    }
}

// ---------------------------------------------------------------------
// mcl
// ---------------------------------------------------------------------

pub struct Mcl {
    a: Graph,
    da: DistGraph,
}

/// `M[i,j] / Σᵢ M[i,j]`: a transpose, a row reduce and a map, as the
/// library's driver normalises columns.
pub(crate) fn normalize_columns(
    m: &Graph,
    ctx: &ExecCtx,
    rec: &mut Recorder,
) -> Result<Graph, String> {
    let t = rec.leaf("core.ops.transpose", || lib::transpose(m, ctx));
    let t = t?;
    let sums = rec.leaf("core.ops.reduce_rows", || lib::reduce_rows_plus(&t, ctx));
    let out = rec.leaf("core.ops.mat_map", || {
        lib::map_mat(m, &|_, j, v| if sums[j] > 0.0 { v / sums[j] } else { 0.0 }, ctx)
    });
    Ok(out)
}

impl Workload for Mcl {
    type Answer = (Vec<usize>, usize);
    type Kept = (Vec<usize>, usize);

    const NAME: &'static str = "mcl";
    const GRID: (usize, usize) = (2, 3);
    const SIM_SOLVES: usize = 4;

    fn cli_args(&self, seed: u64, quick: bool) -> Vec<String> {
        let n = if quick { 1000 } else { 4000 };
        let gen = format!("er:{n}:6");
        strings(&["mcl", "--gen", &gen, "--symmetrize", "--seed", &seed.to_string()])
    }

    fn generate(seed: u64, quick: bool, tracer: &mut impl Tracer) -> Result<Self, String> {
        let n = if quick { 1000 } else { 4000 };
        let a = generated(tracer, || lib::gen_er_symmetric(n, 6, seed));
        // The distributed solve distributes its own operand; this copy is
        // the set-up cost every workload pays and the operand of the
        // distributed kernel probes.
        let da = distributed(tracer, &a, Self::GRID);
        Ok(Mcl { a, da })
    }

    fn prepare_oracle(&mut self) {}

    fn graph(&self) -> &Graph {
        &self.a
    }

    fn dist_graph(&self) -> &DistGraph {
        &self.da
    }

    fn slots(&self) -> usize {
        1
    }

    fn unmasked_mxm_operand(&self) -> Option<&Graph> {
        Some(&self.a)
    }

    fn solve(&self, _i: usize, ctx: &ExecCtx) -> Result<Self::Answer, String> {
        lib::markov_cluster(&self.a, ctx)
    }

    fn solve_dist(&self, _i: usize, dctx: &DistCtx) -> Result<(Self::Answer, SimReport), String> {
        lib::markov_cluster_dist(&self.a, Self::GRID, dctx)
    }

    fn edges(&self, _answer: &Self::Answer) -> u64 {
        lib::nnz(&self.a) as u64
    }

    fn iterations(&self, answer: &Self::Answer) -> usize {
        answer.1
    }

    fn check(&self, _i: usize, answer: &Self::Answer) -> bool {
        oracle::is_valid_clustering(adj(&self.a), &answer.0)
    }

    fn keep(&self, answer: &Self::Answer) -> Self::Kept {
        answer.clone()
    }

    fn agrees(&self, kept: &Self::Kept, dist: &Self::Answer) -> bool {
        kept == dist
    }

    /// Expansion (`M·M`), inflation (map), pruning (select), column
    /// normalisation and the chaos test, until the flow settles; then the
    /// attractor of every column.
    fn replay(
        &self,
        _i: usize,
        answer: &Self::Answer,
        ctx: &ExecCtx,
        rec: &mut Recorder,
    ) -> Result<bool, String> {
        let (inflation, prune, tolerance, cap) = lib::mcl_defaults();
        let looped = lib::add_self_loops(&self.a)?;
        let n = lib::nrows(&looped);
        let mut m = normalize_columns(&looped, ctx, rec)?;
        let mut iters = 0;
        for iter in 1..=cap {
            iters = iter;
            let expanded = rec.leaf("core.ops.mxm", || lib::mxm_square(&m, ctx));
            let expanded = expanded?;
            let inflated = rec.leaf("core.ops.mat_map", || {
                lib::map_mat(&expanded, &|_, _, v| v.powf(inflation), ctx)
            });
            let pruned =
                rec.leaf("core.ops.select", || lib::select_at_least(&inflated, prune, ctx));
            m = normalize_columns(&pruned, ctx, rec)?;
            let t = rec.leaf("core.ops.transpose", || lib::transpose(&m, ctx));
            let t = t?;
            let colmax = rec.leaf("core.ops.reduce_rows", || lib::reduce_rows_max(&t, ctx));
            let sq = rec.leaf("core.ops.mat_map", || lib::map_mat(&t, &|_, _, v| v * v, ctx));
            let colsumsq = rec.leaf("core.ops.reduce_rows", || lib::reduce_rows_plus(&sq, ctx));
            let chaos = (0..n).map(|j| colmax[j] - colsumsq[j]).fold(0.0f64, f64::max);
            if chaos < tolerance {
                break;
            }
        }
        let t = rec.leaf("core.ops.transpose", || lib::transpose(&m, ctx));
        let t = t?;
        let colmax = rec.leaf("core.ops.reduce_rows", || lib::reduce_rows_max(&t, ctx));
        // Column j's attractor is the smallest row holding its maximum.
        let (trowptr, tcolidx) = lib::csr_arrays(&t);
        let tvalues = lib::csr_values(&t);
        let labels: Vec<usize> = (0..n)
            .map(|j| {
                (trowptr[j]..trowptr[j + 1])
                    .find(|&p| tvalues[p] == colmax[j])
                    .map_or(j, |p| tcolidx[p])
            })
            .collect();
        Ok(iters == answer.1 && labels == answer.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, at quick size: the shared and distributed answers
    /// pass the oracle and each other, and the replay reproduces them.
    fn exercise<W: Workload>() {
        let mut rec = Recorder::default();
        let mut w = W::generate(7, true, &mut rec).unwrap();
        w.prepare_oracle();
        let ctx = lib::shared_ctx(2);
        let answer = w.solve(0, &ctx).unwrap();
        assert!(w.check(0, &answer), "{}: oracle mismatch", W::NAME);
        assert!(w.edges(&answer) > 0);
        assert!(w.iterations(&answer) >= 1);
        let (dist, report) = w.solve_dist(0, &fresh_dist_ctx::<W>()).unwrap();
        assert!(w.agrees(&w.keep(&answer), &dist), "{}: dist differs", W::NAME);
        assert!(lib::sim_total(&report) > 0.0);
        assert!(w.replay(0, &answer, &ctx, &mut rec).unwrap(), "{}: replay differs", W::NAME);
        assert!(rec.spans().iter().any(|s| s.name == "core.gen.graph"));
    }

    #[test]
    fn bfs_answers_checks_and_replay_agree() {
        exercise::<Bfs>();
    }

    #[test]
    fn pagerank_answers_checks_and_replay_agree() {
        exercise::<Pagerank>();
    }

    #[test]
    fn triangles_answers_checks_and_replay_agree() {
        exercise::<Triangles>();
    }

    #[test]
    fn mcl_answers_checks_and_replay_agree() {
        exercise::<Mcl>();
    }

    #[test]
    fn a_wrong_answer_fails_the_check() {
        let mut rec = Recorder::default();
        let mut w = Triangles::generate(7, true, &mut rec).unwrap();
        w.prepare_oracle();
        let answer = w.solve(0, &lib::shared_ctx(2)).unwrap();
        assert!(!w.check(0, &(answer + 1)));
    }
}
