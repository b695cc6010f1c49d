//! Pinned digests of PageRank and batched personalized PageRank.
//!
//! Every constant below was recorded on the commit *before* PageRank went
//! matrix-free (the driver still built `ones` and `W` and multiplied over
//! `plus_times`). A digest folds the bit pattern of every rank plus the
//! iteration count, so "ranks and iteration counts are bit-identical on
//! every backend, grid, executor and thread count" is checked against
//! recorded history, not against whatever the current code computes twice.
//! Do not regenerate these: a changed digest is a changed summation order.

use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_core::ops::select::select_mat;
use gblas_core::par::ExecCtx;
use gblas_dist::{DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::{
    pagerank, pagerank_dist_on, ppr_multi, ppr_multi_dist, PageRankOptions, PprOptions,
};
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

fn check_pagerank(name: &str, a: &CsrMatrix<f64>, shared: [u64; 2], dist: [u64; 3]) {
    let opts = PageRankOptions::default();
    let mut bad = Mismatches::default();
    for ((ctx_name, ctx), want) in shared_ctxs().into_iter().zip(shared) {
        let (pr, iters) = pagerank(a, opts, &ctx).unwrap();
        let got = digest(pr.as_slice(), iters);
        bad.check(got, want, format!("{name} shared {ctx_name} ({iters} iterations)"));
    }
    for ((pr_grid, pc_grid), want) in GRIDS.into_iter().zip(dist) {
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

fn check_ppr(name: &str, a: &CsrMatrix<f64>, shared: [u64; 2], dist: [u64; 3]) {
    let opts = PprOptions::default();
    let mut bad = Mismatches::default();
    for ((ctx_name, ctx), want) in shared_ctxs().into_iter().zip(shared) {
        let r = ppr_multi(a, &SEEDS, opts, &ctx).unwrap();
        let got = digest_batch(&r.scores, &r.iterations);
        bad.check(got, want, format!("{name} shared {ctx_name} ({:?})", r.iterations));
    }
    for ((pr_grid, pc_grid), want) in GRIDS.into_iter().zip(dist) {
        let grid = ProcGrid::new(pr_grid, pc_grid);
        let da = DistCsrMatrix::from_global(a, grid);
        for executor in EXECUTORS {
            let (r, _) = ppr_multi_dist(&da, &SEEDS, opts, &dctx(grid, executor)).unwrap();
            let got = digest_batch(&r.scores, &r.iterations);
            let what = format!("{name} dist {pr_grid}x{pc_grid} {executor:?} ({:?})", r.iterations);
            bad.check(got, want, what);
        }
    }
    bad.finish();
}

#[test]
fn pagerank_er_with_dangling_rows() {
    check_pagerank(
        "er",
        &er_with_dangling(),
        [0x3925_8667_08af_e52e, 0x93f8_a2ac_3c23_6e82],
        [0x70af_b1a2_9b64_c0b3, 0x88aa_7add_ef5c_9326, 0x88aa_7add_ef5c_9326],
    );
}

#[test]
fn pagerank_rmat_skewed() {
    check_pagerank(
        "rmat",
        &rmat_skewed(),
        [0xc487_e9e8_d9e3_6eb8, 0x58a4_5ed9_373f_0334],
        [0x76e6_f1ba_4a58_f9e6, 0xae56_28d0_7975_b97a, 0xae56_28d0_7975_b97a],
    );
}

#[test]
fn ppr_multi_er_with_dangling_rows() {
    check_ppr(
        "er",
        &er_with_dangling(),
        [0xe865_1150_1f12_627e, 0x8310_db6e_d866_b04a],
        [0xef05_398a_e24b_1522, 0x54fe_be5e_b85c_8876, 0x54fe_be5e_b85c_8876],
    );
}

#[test]
fn ppr_multi_rmat_skewed() {
    check_ppr(
        "rmat",
        &rmat_skewed(),
        [0x467d_aa93_ca86_310e, 0x3aa7_17be_9a0e_0e7b],
        [0xbeea_745e_0443_6402, 0x903b_4f26_6a48_c571, 0x903b_4f26_6a48_c571],
    );
}
