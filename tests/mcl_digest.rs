//! Pinned digests of Markov clustering.
//!
//! Every constant below was recorded on the commit *before* MCL went
//! row-oriented (the driver still materialised `M·M`, mapped `powf` over
//! it, selected, and transposed twice per iteration to read column
//! statistics). A digest folds every label plus the iteration count, so
//! "labels and iteration counts are identical on every backend, grid,
//! executor, SUMMA variant and thread count" is checked against recorded
//! history, not against whatever the current code computes twice. Do not
//! regenerate these: a changed digest is a changed clustering.

use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_core::par::ExecCtx;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, MxmAlgo, ProcGrid};
use gblas_graph::mcl::add_self_loops;
use gblas_graph::{markov_cluster, markov_cluster_on, MclOptions};
use gblas_sim::MachineConfig;

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];
/// Grid shape and replication layers of every distributed run.
const GRIDS: [(usize, usize, usize); 5] = [(1, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)];

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

fn digest(labels: &[usize], iters: usize) -> u64 {
    fnv(labels.iter().map(|&l| l as u64).chain([iters as u64]))
}

/// The vertex of [`gappy`] whose whole column is pruned away.
const DRAINED: usize = 220;

/// An undirected ER graph on vertices `0..200`, twenty isolated vertices,
/// and vertex [`DRAINED`] with a directed edge to each of `230..400`
/// (themselves otherwise isolated): its flow spreads evenly over 171 rows,
/// every one of which inflates below the default prune threshold, so its
/// column empties in the first iteration.
fn gappy() -> CsrMatrix<f64> {
    let core = gen::erdos_renyi_symmetric(200, 4, 31);
    let mut trips: Vec<_> = core.iter().map(|(i, j, &v)| (i, j, v)).collect();
    trips.extend((230..400).map(|i| (i, DRAINED, 1.0)));
    CsrMatrix::from_triplets(400, 400, &trips).unwrap()
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

/// Every configuration of one input gives the one pinned clustering; the
/// labels come back for input-specific checks.
fn check_mcl(name: &str, a: &CsrMatrix<f64>, want: u64) -> Vec<usize> {
    let opts = MclOptions::default();
    let mut bad = Mismatches::default();
    let (labels, iters) = markov_cluster(a, opts, &ExecCtx::serial()).unwrap();
    bad.check(digest(&labels, iters), want, format!("{name} shared serial ({iters} iterations)"));
    let (l4, i4) = markov_cluster(a, opts, &ExecCtx::new(4, 2)).unwrap();
    bad.check(digest(&l4, i4), want, format!("{name} shared 4x2 ({i4} iterations)"));
    let looped = add_self_loops(a).unwrap();
    for (pr, pc, layers) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let algo = if layers > 1 { MxmAlgo::Summa3d { layers } } else { MxmAlgo::Summa2d };
        let da = DistCsrMatrix::from_global(&looped, grid);
        for executor in EXECUTORS {
            let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales() * layers, 24));
            dctx.set_executor(executor);
            let b = DistBackend::new(&dctx).with_mxm(algo);
            let (l, i) = markov_cluster_on(&b, &da, opts).unwrap();
            let what = format!("{name} dist {pr}x{pc}x{layers} {executor:?} ({i} iterations)");
            bad.check(digest(&l, i), want, what);
        }
    }
    bad.finish();
    labels
}

#[test]
fn mcl_er_symmetric() {
    check_mcl("er", &gen::erdos_renyi_symmetric(300, 5, 19), 0x748e_db10_1c1c_efa1);
}

/// Directed and skewed: `A ≠ Aᵀ`, so a driver that confused rows with
/// columns would cluster a different graph.
#[test]
fn mcl_rmat_directed() {
    let a = gen::rmat(8, 8, 5);
    let t = gblas_core::ops::transpose::transpose(&a, &ExecCtx::serial()).unwrap();
    let labels = check_mcl("rmat", &a, 0x9bbd_66cf_c0e3_fcfe);
    let (flipped, _) = markov_cluster(&t, MclOptions::default(), &ExecCtx::serial()).unwrap();
    assert_ne!(labels, flipped, "the digest must tell A from its transpose");
}

#[test]
fn mcl_isolated_vertices_and_a_drained_column() {
    let labels = check_mcl("gappy", &gappy(), 0x399f_fbc6_af77_d734);
    // isolated vertices, the drained one and its orphaned targets are
    // singletons
    for v in (200..220).chain([DRAINED]).chain(230..400) {
        assert_eq!(labels[v], v);
    }
}
