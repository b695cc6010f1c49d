//! # gblas-graph — graph algorithms on the GraphBLAS API
//!
//! The paper motivates its operation subset by composability: "Our
//! operations are chosen such that they can be composed to implement an
//! efficient breadth-first search algorithm, which is often the 'hello
//! world' example of GraphBLAS" (§III), and names "complete graph
//! algorithms written in our GraphBLAS Chapel library" as future work
//! (§V). This crate closes that loop:
//!
//! * [`mod@bfs`] — level-synchronous BFS with parent tracking;
//! * [`cc`] — connected components by label propagation over the
//!   `(min, first)` semiring;
//! * [`mod@pagerank`] — PageRank power iteration over `(+, ×)` SpMV with
//!   dangling-mass correction;
//! * [`mod@sssp`] — single-source shortest paths: Bellman–Ford over the
//!   tropical `(min, +)` semiring, for any [`sssp::EdgeWeight`] value
//!   type;
//! * [`triangles`] — triangle counting via masked SpGEMM
//!   (`C⟨L⟩ = L · L` over the plus-pair semiring);
//! * [`mod@betweenness`] — Brandes betweenness centrality from masked
//!   path-counting SpMSpV sweeps and a transposed dependency
//!   back-propagation;
//! * [`kcore`] — k-core decomposition by `reduce`/`select` peeling;
//! * [`mis`] — maximal independent set by Luby's algorithm;
//! * [`mod@mcl`] — Markov clustering: expansion is one SpGEMM per
//!   iteration (the mxm-heavy workload for the hypersparse multi-stage
//!   SUMMA), inflation is `map` + column prune.
//!
//! **Every algorithm is written exactly once**, as a generic function
//! over [`gblas_core::backend::GblasBackend`] (`bfs_on`, `sssp_on`, ...).
//! A choice is a parameter, not a second driver: the traversals take an
//! `Option<SelectionPolicy>` (`None` runs the native direction every
//! iteration), and BFS and SSSP take a slice of `k ≥ 0` sources, one
//! source being a batch of one. The same text runs on the shared-memory
//! backend
//! ([`gblas_core::backend::SharedBackend`]) and on the simulated
//! distributed backend ([`gblas_dist::DistBackend`]), which is the
//! paper's version-1/version-2 split made a compile-time contract. The
//! caller picks the substrate by constructing the backend value, and a
//! distributed run's [`gblas_sim::SimReport`] comm/compute ledger is
//! `DistBackend::take_report`. For SSSP, CC, k-core, MIS, betweenness and
//! personalized PageRank the `*_on` driver is the only public entry. BFS,
//! PageRank, triangles and MCL keep thin wrappers (`bfs`, `bfs_dist`,
//! `pagerank_dist`, `markov_cluster`, ...) that pick a backend, because the
//! benchmark calls them until it holds one graph handle per input. All
//! algorithms run distributed, including triangles and MCL (multi-stage
//! sparse SUMMA on any rectangular grid), k-core, MIS and betweenness.

//! ```
//! use gblas_core::{gen, par::ExecCtx};
//!
//! let a = gen::erdos_renyi(500, 8, 42);
//! let result = gblas_graph::bfs(&a, 0, &ExecCtx::with_threads(2)).unwrap();
//! assert!(result.reached() > 1);
//! result.validate(&a, 0).unwrap();
//! ```

pub mod betweenness;
pub mod bfs;
pub mod cc;
pub mod kcore;
pub mod mcl;
pub mod mis;
pub mod multi;
pub mod pagerank;
mod policy;
pub mod sssp;
pub mod triangles;

pub use betweenness::betweenness_on;
pub use bfs::{
    bfs, bfs_dist, bfs_dist_with, bfs_observed, bfs_on, bfs_selected, bfs_selected_dist, bfs_with,
    BfsResult,
};
pub use cc::connected_components_on;
pub use kcore::core_numbers_on;
pub use mcl::{markov_cluster, markov_cluster_dist, markov_cluster_on, MclOptions};
pub use mis::maximal_independent_set_on;
pub use multi::{bfs_multi, bfs_multi_dist, ppr_multi_on, PprOptions, PprResult};
pub use pagerank::{pagerank, pagerank_dist, pagerank_dist_on, pagerank_on, PageRankOptions};
pub use sssp::{sssp_on, EdgeWeight};
pub use triangles::{triangle_count, triangle_count_dist, triangle_count_on};

use gblas_core::algebra::Scalar;
use gblas_core::backend::GblasBackend;
use gblas_core::error::{check_dims, GblasError, Result};

/// The one output of a single-source push or SpMV (`xs = slice::from_ref(&x)`),
/// or the one slot of a traversal from one source.
fn only<T>(ys: impl IntoIterator<Item = T>) -> Result<T> {
    ys.into_iter()
        .next()
        .ok_or_else(|| GblasError::InvalidContainer("an op returned no output row".into()))
}

/// The shape checks of a traversal from `sources`: a square matrix, and
/// every source a vertex of it. Returns the vertex count.
fn check_sources<B: GblasBackend, T: Scalar>(
    backend: &B,
    a: &B::Matrix<T>,
    sources: &[usize],
) -> Result<usize> {
    let n = backend.mat_nrows(a);
    check_dims("square matrix", n, backend.mat_ncols(a))?;
    match sources.iter().find(|&&s| s >= n) {
        Some(&index) => Err(GblasError::IndexOutOfBounds { index, capacity: n }),
        None => Ok(n),
    }
}
