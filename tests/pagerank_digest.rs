//! Pinned digests of PageRank and batched personalized PageRank.
//!
//! A digest folds the bit pattern of every rank plus the iteration count,
//! so bit-identity is checked against recorded history, not against
//! whatever the current code computes twice. Each input pins two values:
//!
//! * `one_row` — the shared backend under any thread counts and the 1×1
//!   grid. Recorded on the commit *before* PageRank went matrix-free (the
//!   driver still built `ones` and `W` and multiplied over `plus_times`) as
//!   the `serial` digest, and never edited since.
//! * `two_rows` — the 2×2 and 2×3 grids: two block partials per output,
//!   combined down the processor column.
//!
//! What moved when `spmv_col` began sizing its accumulators from the matrix
//! (one per `6·ncols` stored entries, so one on these inputs) instead of one
//! per logical thread: shared `4x2` (was four partials) and dist 1×1 (was
//! 24) now *equal* `one_row`, and `two_rows` was re-recorded once — each
//! block's partial is a single sum in row order, no longer a fold of 24.
//! Iteration counts did not move. A changed digest is a changed summation
//! order: re-record only with the change that re-associates, and say why.

use gblas_core::backend::SharedBackend;
use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_core::ops::select::select_mat;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::{pagerank, pagerank_dist_on, ppr_multi_on, PageRankOptions, PprOptions};
use gblas_sim::MachineConfig;

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];
const GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (2, 3)];
/// Batch of three with a duplicate seed.
const SEEDS: [usize; 3] = [7, 130, 7];

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(ranks: &[f64], iters: usize) -> u64 {
    fnv(ranks.iter().map(|r| r.to_bits()).chain([iters as u64]))
}

fn digest_batch(scores: &[gblas_core::container::DenseVec<f64>], iters: &[usize]) -> u64 {
    fnv(scores.iter().zip(iters).map(|(s, &i)| digest(s.as_slice(), i)))
}

fn dangling_rows(a: &CsrMatrix<f64>) -> usize {
    (0..a.nrows()).filter(|&i| a.row_nnz(i) == 0).count()
}

/// Uniform ER with every fifth row emptied (dangling vertices).
fn er_with_dangling() -> CsrMatrix<f64> {
    let a = gen::erdos_renyi(240, 4, 161);
    let a = select_mat(&a, &|i, _, _| i % 5 != 0, &ExecCtx::serial());
    assert!(dangling_rows(&a) >= 48);
    a
}

/// Skewed RMAT: hubs plus naturally edge-less vertices.
fn rmat_skewed() -> CsrMatrix<f64> {
    let a = gen::rmat(9, 6, 77);
    assert!(dangling_rows(&a) > 0, "rmat input must have dangling rows");
    a
}

fn dctx(grid: ProcGrid, executor: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    d.set_executor(executor);
    d
}

fn shared_ctxs() -> [(&'static str, ExecCtx); 2] {
    [("serial", ExecCtx::serial()), ("4x2", ExecCtx::new(4, 2))]
}

/// Collects every mismatch before failing, so one run shows them all.
#[derive(Default)]
struct Mismatches(Vec<String>);

impl Mismatches {
    fn check(&mut self, got: u64, want: u64, what: String) {
        if got != want {
            self.0.push(format!("{what}: got {got:#018x}, pinned {want:#018x}"));
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "digests moved:\n{}", self.0.join("\n"));
    }
}

fn check_pagerank(name: &str, a: &CsrMatrix<f64>, one_row: u64, two_rows: u64) {
    let opts = PageRankOptions::default();
    let mut bad = Mismatches::default();
    for (ctx_name, ctx) in shared_ctxs() {
        let (pr, iters) = pagerank(a, opts, &ctx).unwrap();
        let got = digest(pr.as_slice(), iters);
        bad.check(got, one_row, format!("{name} shared {ctx_name} ({iters} iterations)"));
    }
    for (pr_grid, pc_grid) in GRIDS {
        let want = if pr_grid == 1 { one_row } else { two_rows };
        let grid = ProcGrid::new(pr_grid, pc_grid);
        let da = DistCsrMatrix::from_global(a, grid);
        for executor in EXECUTORS {
            let (pr, iters, _) = pagerank_dist_on(&da, opts, &dctx(grid, executor)).unwrap();
            let got = digest(pr.as_slice(), iters);
            let what = format!("{name} dist {pr_grid}x{pc_grid} {executor:?} ({iters} iterations)");
            bad.check(got, want, what);
        }
    }
    bad.finish();
}

fn check_ppr(name: &str, a: &CsrMatrix<f64>, one_row: u64, two_rows: u64) {
    let opts = PprOptions::default();
    let mut bad = Mismatches::default();
    for (ctx_name, ctx) in shared_ctxs() {
        let r = ppr_multi_on(&SharedBackend::new(&ctx), a, &SEEDS, opts).unwrap();
        let got = digest_batch(&r.scores, &r.iterations);
        bad.check(got, one_row, format!("{name} shared {ctx_name} ({:?})", r.iterations));
    }
    for (pr_grid, pc_grid) in GRIDS {
        let want = if pr_grid == 1 { one_row } else { two_rows };
        let grid = ProcGrid::new(pr_grid, pc_grid);
        let da = DistCsrMatrix::from_global(a, grid);
        for executor in EXECUTORS {
            let d = dctx(grid, executor);
            let b = DistBackend::with_strategy(&d, CommStrategy::Bulk);
            let r = ppr_multi_on(&b, &da, &SEEDS, opts).unwrap();
            let got = digest_batch(&r.scores, &r.iterations);
            let what = format!("{name} dist {pr_grid}x{pc_grid} {executor:?} ({:?})", r.iterations);
            bad.check(got, want, what);
        }
    }
    bad.finish();
}

#[test]
fn pagerank_er_with_dangling_rows() {
    check_pagerank("er", &er_with_dangling(), 0x3925_8667_08af_e52e, 0xee4a_afd5_7415_cc70);
}

#[test]
fn pagerank_rmat_skewed() {
    check_pagerank("rmat", &rmat_skewed(), 0xc487_e9e8_d9e3_6eb8, 0x4ce9_22ca_dc99_9343);
}

#[test]
fn ppr_multi_er_with_dangling_rows() {
    check_ppr("er", &er_with_dangling(), 0xe865_1150_1f12_627e, 0x21a2_2724_9fb6_9a86);
}

#[test]
fn ppr_multi_rmat_skewed() {
    check_ppr("rmat", &rmat_skewed(), 0x467d_aa93_ca86_310e, 0x73a2_e229_f928_65ee);
}
