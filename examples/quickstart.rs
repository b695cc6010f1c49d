//! Quickstart: the four paper operations on a small sparse vector/matrix.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gblas::prelude::*;
use gblas_core::ops::{apply, assign, ewise, spmspv};

fn main() -> Result<()> {
    let ctx = ExecCtx::with_threads(4);

    // --- A sparse vector over 0..10 (§II-A: sorted indices + values). ---
    let mut x = SparseVec::from_sorted(10, vec![1, 3, 5, 8], vec![1.0, 3.0, 5.0, 8.0])?;
    println!("x: nnz={} density f={:.2}", x.nnz(), x.density());

    // --- Apply: square every stored value (§III-A). ---
    apply::apply_vec_inplace(&mut x, &|v: f64| v * v, &ctx);
    println!("after apply(^2): {:?}", x.values());

    // --- Assign: copy x into another vector, both ways (§III-B). ---
    let mut a = SparseVec::new(10);
    assign::assign_v2(&mut a, &x, &ctx)?;
    assert_eq!(a, x);
    println!("assign_v2 copied {} entries", a.nnz());

    // --- eWiseMult: keep entries where a boolean dense vector is true
    //     (§III-C, Listing 6). ---
    let keep_mask = DenseVec::from_fn(10, |i| i % 2 == 1); // odd positions
    let kept = ewise::ewise_filter_prefix(&x, &keep_mask, &|_, k| k, &ctx)?;
    println!("eWiseMult kept indices {:?}", kept.indices());

    // --- SpMSpV: one step of BFS on a little directed cycle (§III-D). ---
    let n = 6;
    let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    let a = CsrMatrix::from_triplets(n, n, &edges)?;
    let frontier = SparseVec::from_sorted(n, vec![0], vec![1.0])?;
    let out = spmspv::spmspv_semiring(&a, &frontier, &semirings::plus_times_f64(), &ctx)?;
    println!("frontier {{0}} reaches {:?}", out.indices());

    // --- What did all that cost? The instrumented profile: ---
    let profile = ctx.take_profile();
    println!("\nwork profile (phase: units):");
    for (phase, c) in profile.iter() {
        println!("  {phase:14} elems={} flops={} probes={}", c.elems, c.flops, c.search_probes);
    }
    // Priced for the paper's 24-core Edison node:
    let report = CostModel::edison().profile_time(&profile, 24);
    println!("simulated time on a 24-thread Edison node: {report}");
    Ok(())
}
