//! Triangle counting and connected components — two more algorithms
//! composed from the GraphBLAS API (masked SpGEMM, select, transpose,
//! reduce; min-label SpMV), demonstrating the §V "complete graph
//! algorithms" future work.
//!
//! ```text
//! cargo run --release --example triangle_count
//! ```

use gblas::prelude::*;
use gblas_core::backend::SharedBackend;
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_graph::cc::{component_count, connected_components_on};
use gblas_graph::triangle_count;

fn main() -> Result<()> {
    let ctx = ExecCtx::with_threads(4);

    for (label, n, d, seed) in [
        ("sparse", 20_000usize, 4usize, 1u64),
        ("medium", 20_000, 10, 2),
        ("dense-ish", 5_000, 40, 3),
    ] {
        let a = gen::erdos_renyi_symmetric(n, d, seed);
        let t0 = std::time::Instant::now();
        let triangles = triangle_count(&a, &ctx)?;
        let t_tri = t0.elapsed();
        let t1 = std::time::Instant::now();
        let backend = SharedBackend::new(&ctx);
        let (labels, _) = connected_components_on(&backend, &a, None, SpMSpVOpts::default())?;
        let t_cc = t1.elapsed();
        println!(
            "{label:10} n={n:>6} edges={:>8}  triangles={triangles:>9} ({t_tri:.2?})  components={} ({t_cc:.2?})",
            a.nnz() / 2,
            component_count(&labels),
        );
        // Sanity: expected triangle count of G(n, p) is C(n,3) p^3 with
        // p = 2d/n here (symmetrized); check the order of magnitude.
        let p_edge = a.nnz() as f64 / (n as f64 * (n as f64 - 1.0));
        let expected = (n as f64).powi(3) / 6.0 * p_edge.powi(3);
        let ratio = triangles as f64 / expected.max(1.0);
        assert!(
            (0.2..5.0).contains(&ratio),
            "{label}: triangle count {triangles} vs ER expectation {expected:.0}"
        );
    }
    Ok(())
}
