//! Single-source shortest paths on a weighted grid "road network",
//! computed by min-plus SpMSpV relaxation — a semiring swap away from BFS,
//! which is exactly the flexibility §I of the paper advertises for the
//! linear-algebraic formulation.
//!
//! ```text
//! cargo run --release --example sssp_roadnet
//! ```

use gblas::prelude::*;
use gblas_core::backend::SharedBackend;
use gblas_core::container::CooMatrix;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_graph::{bfs, sssp_on};
use rand_free_weights::weight;

/// Deterministic pseudo-random edge weights without pulling `rand` into
/// the example: a splitmix-style hash of the endpoints.
mod rand_free_weights {
    pub fn weight(a: usize, b: usize) -> f64 {
        let mut x = (a as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (b as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        // travel times in [1, 10)
        1.0 + (x % 9000) as f64 / 1000.0
    }
}

fn main() -> Result<()> {
    // A k x k grid of intersections with 4-neighbour roads, both ways,
    // weighted by synthetic travel times.
    let k = 300usize;
    let n = k * k;
    let idx = |r: usize, c: usize| r * k + c;
    let mut coo = CooMatrix::new(n, n);
    for r in 0..k {
        for c in 0..k {
            if c + 1 < k {
                let w = weight(idx(r, c), idx(r, c + 1));
                coo.push(idx(r, c), idx(r, c + 1), w)?;
                coo.push(idx(r, c + 1), idx(r, c), w)?;
            }
            if r + 1 < k {
                let w = weight(idx(r, c), idx(r + 1, c));
                coo.push(idx(r, c), idx(r + 1, c), w)?;
                coo.push(idx(r + 1, c), idx(r, c), w)?;
            }
        }
    }
    let a = coo.to_csr(gblas_core::container::DupPolicy::Error)?;
    println!("road network: {} intersections, {} road segments", n, a.nnz() / 2);

    let ctx = ExecCtx::with_threads(4);
    let source = idx(0, 0);

    let t0 = std::time::Instant::now();
    let backend = SharedBackend::new(&ctx);
    let (dist, _) = sssp_on(&backend, &a, &[source], None, SpMSpVOpts::default())?.remove(0);
    println!("sssp from corner ({:.2?})", t0.elapsed());

    // Spot checks: distance to the far corner and a triangle-inequality
    // audit along sampled edges.
    let far = idx(k - 1, k - 1);
    println!("travel time corner-to-corner: {:.3}", dist[far]);
    assert!(dist[far].is_finite());
    for (u, v, &w) in a.iter().step_by(97) {
        assert!(dist[v] <= dist[u] + w + 1e-9, "triangle inequality violated on edge {u}->{v}");
    }

    // Compare structure against hop counts: weighted distance must need
    // at least hops * min_weight.
    let hops = bfs(&a, source, &ctx)?;
    let min_w = a.values().iter().cloned().fold(f64::INFINITY, f64::min);
    for v in (0..n).step_by(1013) {
        if hops.levels[v] >= 0 {
            assert!(dist[v] >= hops.levels[v] as f64 * min_w - 1e-9);
        }
    }
    println!(
        "hop count corner-to-corner: {} (so the weighted route averages {:.2} per hop)",
        hops.levels[far],
        dist[far] / hops.levels[far] as f64
    );
    Ok(())
}
