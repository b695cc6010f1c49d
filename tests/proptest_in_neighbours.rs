//! Property tests for the in-neighbour lists a matrix keeps for the pull.
//!
//! `bfs` is direction-optimizing: its first pull builds the matrix's
//! `InNeighbours` (the pattern of `Aᵀ` in 32-bit ids), and every later pull
//! on that matrix scans them. Four claims rest on that cache:
//!
//! * **the default is the push** — `bfs` (`Auto` over the kept lists)
//!   returns the explicit push's levels and parents bit for bit, on R-MAT
//!   and Erdős–Rényi inputs, directed and symmetrised, on 1, 2 and 4
//!   threads, from several sources;
//! * **the lists are the transpose** — list `j` is row `j` of
//!   `ops::transpose`'s output, on square and rectangular matrices;
//! * **one build** — two threads racing the first `bfs` on one fresh
//!   matrix build the lists once (one profile carries the build) and agree;
//! * **derived state** — `Clone` shares the lists and `PartialEq` / `Debug`
//!   ignore them.

use gblas::prelude::*;
use gblas_core::container::{DupPolicy, InNeighbours};
use gblas_core::gen;
use gblas_core::ops::selection::{Direction, RowView, SelectionPolicy};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::ops::transpose::{transpose, PHASE};
use gblas_graph::{bfs, bfs_selected};
use proptest::prelude::*;

/// Every edge in both directions, self-loops dropped (`--symmetrize`).
fn symmetrised(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, j, &v) in a.iter() {
        if i != j {
            coo.push(i, j, v).unwrap();
            coo.push(j, i, v).unwrap();
        }
    }
    coo.to_csr_with(DupPolicy::KeepLast, |x, _| x).unwrap()
}

/// A square test graph: R-MAT (skewed) or Erdős–Rényi (uniform), of one
/// of four sizes, directed or symmetrised.
fn graph(seed: u64, rmat: bool, symmetric: bool, size: usize) -> CsrMatrix<f64> {
    let a = if rmat {
        gen::rmat(6 + size as u32, 4 + 4 * size, seed)
    } else {
        gen::erdos_renyi(60 << size, 2 + 3 * size, seed)
    };
    if symmetric {
        symmetrised(&a)
    } else {
        a
    }
}

/// The first `rows` rows of `a`: a rectangular matrix.
fn top_rows(a: &CsrMatrix<f64>, rows: usize) -> CsrMatrix<f64> {
    let end = a.rowptr()[rows];
    let (colidx, values) = (a.colidx()[..end].to_vec(), a.values()[..end].to_vec());
    CsrMatrix::from_raw_parts(rows, a.ncols(), a.rowptr()[..=rows].to_vec(), colidx, values)
        .unwrap()
}

/// Whether `ctx`'s profile holds the lists' build (charged to the
/// transpose phase; nothing else in a BFS transposes).
fn built_under(ctx: &ExecCtx) -> bool {
    ctx.profile().phase_names().contains(&PHASE)
}

fn push(a: &CsrMatrix<f64>, source: usize, ctx: &ExecCtx) -> gblas_graph::BfsResult {
    let opts = SpMSpVOpts::default();
    bfs_selected(a, source, SelectionPolicy::Push, opts, ctx).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn default_bfs_equals_the_explicit_push(
        seed in 0u64..1000, rmat in any::<bool>(), symmetric in any::<bool>(), size in 0usize..4
    ) {
        let a = graph(seed, rmat, symmetric, size);
        let n = a.nrows();
        let sources = [0, (seed as usize * 7919) % n, n / 2, n - 1];
        for threads in [1, 2, 4] {
            let ctx = ExecCtx::new(threads, threads.min(2));
            for source in sources {
                let auto = bfs(&a, source, &ctx).unwrap();
                let expect = push(&a, source, &ctx);
                prop_assert_eq!(&auto.levels, &expect.levels, "levels from {}", source);
                prop_assert_eq!(&auto.parents, &expect.parents, "parents from {}", source);
            }
        }
    }

    #[test]
    fn kept_lists_are_the_transpose_pattern(
        seed in 0u64..1000, rmat in any::<bool>(), symmetric in any::<bool>(), size in 0usize..4,
        threads in 1usize..5, cut in 0usize..4
    ) {
        let square = graph(seed, rmat, symmetric, size);
        // Square, and three rectangular cuts of the same rows.
        let a = if cut == 0 { square } else { top_rows(&square, square.nrows() * cut / 4) };
        let ctx = ExecCtx::new(threads, 2);
        let lists: &InNeighbours = a.in_neighbours(&ctx).unwrap();
        let t = transpose(&a, &ExecCtx::serial()).unwrap();
        prop_assert_eq!(RowView::nrows(lists), t.nrows());
        prop_assert_eq!(RowView::ncols(lists), t.ncols());
        for j in 0..t.nrows() {
            let got: Vec<usize> = lists.row_ids(j).collect();
            prop_assert_eq!(got.as_slice(), t.row(j).0, "list {}", j);
        }
    }

    #[test]
    fn clone_and_equality_ignore_the_lists(
        seed in 0u64..1000, rmat in any::<bool>(), symmetric in any::<bool>(), size in 0usize..3
    ) {
        let a = graph(seed, rmat, symmetric, size);
        let before = a.clone();
        let debug = format!("{a:?}");
        let ctx = ExecCtx::serial();
        let lists: *const InNeighbours = a.in_neighbours(&ctx).unwrap();
        prop_assert!(built_under(&ctx));
        prop_assert!(a == before, "building the lists changed equality");
        prop_assert_eq!(format!("{a:?}"), debug);

        // A clone made after the build shares the lists: nothing is built.
        let after = a.clone();
        prop_assert!(after == a);
        let fresh = ExecCtx::serial();
        prop_assert!(std::ptr::eq(after.in_neighbours(&fresh).unwrap(), lists));
        prop_assert!(!built_under(&fresh));

        // One made before builds its own, equal lists.
        let own = ExecCtx::serial();
        let theirs = before.in_neighbours(&own).unwrap();
        prop_assert!(built_under(&own));
        prop_assert!(!std::ptr::eq(theirs, lists));
        let ours = after.in_neighbours(&fresh).unwrap();
        for j in 0..a.ncols() {
            prop_assert!(theirs.row_ids(j).eq(ours.row_ids(j)), "list {}", j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn racing_first_bfs_builds_the_lists_once(seed in 0u64..1000, source in 0usize..2000) {
        // Dense enough that `Auto` pulls from every source.
        let a = gen::erdos_renyi(2000, 24, seed);
        let probe = a.clone(); // an independent, empty cache
        let (_, dirs) = bfs_selected(
            &probe, source, SelectionPolicy::Auto, SpMSpVOpts::default(), &ExecCtx::serial(),
        ).unwrap();
        prop_assert!(dirs.contains(&Direction::Pull), "{:?}", dirs);

        let ctxs = [ExecCtx::new(2, 2), ExecCtx::new(2, 2)];
        let start = std::sync::Barrier::new(2);
        let results: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = ctxs
                .iter()
                .map(|ctx| {
                    let (a, start) = (&a, &start);
                    s.spawn(move || {
                        start.wait();
                        bfs(a, source, ctx).unwrap()
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let builds = ctxs.iter().filter(|ctx| built_under(ctx)).count();
        prop_assert_eq!(builds, 1, "the lists must be built exactly once");
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[0], &push(&a, source, &ExecCtx::serial()));
    }
}

#[test]
fn default_bfs_pulls_on_the_skewed_inputs() {
    // The equality above is only worth something if `Auto` pulls there.
    let a = graph(11, true, false, 3);
    let ctx = ExecCtx::new(2, 2);
    let (r, dirs) =
        bfs_selected(&a, 0, SelectionPolicy::Auto, SpMSpVOpts::default(), &ctx).unwrap();
    assert!(dirs.contains(&Direction::Pull), "{dirs:?}");
    assert_eq!(r, bfs(&a, 0, &ctx).unwrap());
}
