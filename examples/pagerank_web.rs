//! PageRank over a synthetic web graph, built from SpMV over a semiring —
//! here the pattern-only plus-first one, so the link weights are never
//! read — the "flexibility" payoff of the linear-algebraic formulation
//! the paper's introduction advertises.
//!
//! ```text
//! cargo run --release --example pagerank_web
//! ```

use gblas::prelude::*;
use gblas_core::gen;
use gblas_graph::{pagerank, PageRankOptions};

fn main() -> Result<()> {
    let n = 50_000;
    println!("building a {n}-page web graph...");
    // Directed ER graph plus a few deliberate "hub" pages that everything
    // links to, so the ranking has structure worth printing.
    let base = gen::erdos_renyi(n, 12, 7);
    let mut coo = CooMatrix::new(n, n);
    for (i, j, &v) in base.iter() {
        coo.push(i, j, v)?;
    }
    for hub in [0usize, 1, 2] {
        for i in (0..n).step_by(97) {
            if i != hub {
                // many pages link to the hubs
                coo.push(i, hub, 1.0)?;
            }
        }
    }
    let a = coo.to_csr_with(gblas_core::container::DupPolicy::KeepLast, |x, _| x)?;
    println!("graph: {} pages, {} links", a.nrows(), a.nnz());

    let ctx = ExecCtx::with_threads(4);
    let opts = PageRankOptions { damping: 0.85, tolerance: 1e-10, max_iterations: 100 };
    let (ranks, iters) = pagerank(&a, opts, &ctx)?;
    println!("converged in {iters} iterations");

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| ranks[y].partial_cmp(&ranks[x]).unwrap());
    println!("\ntop 10 pages:");
    for (rank_pos, &page) in order.iter().take(10).enumerate() {
        println!("  #{:<2} page {:>6}  score {:.6}", rank_pos + 1, page, ranks[page]);
    }
    assert!(order[..3].iter().all(|p| *p < 3), "the three hubs must rank on top");
    let sum: f64 = ranks.as_slice().iter().sum();
    println!("\nrank mass: {sum:.9} (conserved)");
    Ok(())
}
