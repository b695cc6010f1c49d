//! Integration: the graph algorithms exercise the whole GraphBLAS surface
//! end-to-end, compared against independent reference implementations.

use gblas::prelude::*;
use gblas_core::backend::SharedBackend;
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_graph::cc::{component_count, connected_components_on};
use gblas_graph::{bfs, bfs_dist, pagerank, triangle_count, PageRankOptions};

#[test]
fn bfs_agrees_with_queue_reference_on_many_graphs() {
    for seed in [1u64, 2, 3, 4] {
        let a = gen::erdos_renyi(300, 3, seed);
        let ctx = ExecCtx::with_threads(2);
        let r = bfs(&a, (seed as usize * 7) % 300, &ctx).unwrap();
        // reference
        let mut levels = vec![-1i64; 300];
        let src = (seed as usize * 7) % 300;
        levels[src] = 0;
        let mut q = std::collections::VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            let (cols, _) = a.row(u);
            for &v in cols {
                if levels[v] < 0 {
                    levels[v] = levels[u] + 1;
                    q.push_back(v);
                }
            }
        }
        assert_eq!(r.levels.as_slice(), levels.as_slice(), "seed {seed}");
        r.validate(&a, src).unwrap();
    }
}

#[test]
fn distributed_bfs_simulated_cost_decreases_for_local_multiply() {
    let a = gen::erdos_renyi(2000, 8, 11);
    let shared = bfs(&a, 0, &ExecCtx::serial()).unwrap();
    let mut local_times = Vec::new();
    for p in [1usize, 4, 16] {
        let grid = ProcGrid::square_for(p);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
        let (r, report) = bfs_dist(&da, 0, &dctx).unwrap();
        assert_eq!(r.levels, shared.levels, "p={p}");
        local_times.push(report.phase("local"));
    }
    assert!(local_times[2] < local_times[0], "local multiply should scale: {local_times:?}");
}

#[test]
fn cc_pagerank_triangles_cross_check() {
    // On a graph of two disjoint cliques the three algorithms have
    // closed-form answers.
    let k = 6; // clique size
    let mut trips = Vec::new();
    for base in [0usize, k] {
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    trips.push((base + i, base + j, 1.0));
                }
            }
        }
    }
    let a = CsrMatrix::from_triplets(2 * k, 2 * k, &trips).unwrap();
    let ctx = ExecCtx::with_threads(2);

    let b = SharedBackend::new(&ctx);
    let (labels, _) = connected_components_on(&b, &a, None, SpMSpVOpts::default()).unwrap();
    assert_eq!(component_count(&labels), 2);

    let triangles = triangle_count(&a, &ctx).unwrap();
    let per_clique = (k * (k - 1) * (k - 2) / 6) as u64;
    assert_eq!(triangles, 2 * per_clique);

    let (pr, _) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
    // symmetric regular graph: uniform PageRank
    for v in 0..2 * k {
        assert!((pr[v] - 1.0 / (2.0 * k as f64)).abs() < 1e-6, "vertex {v}");
    }
}

#[test]
fn bfs_via_tropical_semiring_agrees_on_unweighted_graph() {
    // Hop distances computed two ways: BFS levels vs iterated min-plus
    // SpMSpV with unit weights.
    let a = gen::erdos_renyi(150, 4, 21);
    let unit = a.with_values(vec![1.0f64; a.nnz()]);
    let ctx = ExecCtx::serial();
    let levels = bfs(&a, 0, &ctx).unwrap().levels;

    // min-plus relaxation until fixpoint
    let ring = semirings::min_plus();
    let mut dist = vec![f64::INFINITY; 150];
    dist[0] = 0.0;
    let mut frontier = SparseVec::from_sorted(150, vec![0], vec![0.0]).unwrap();
    while frontier.nnz() > 0 {
        let y = gblas_core::ops::spmspv::spmspv_semiring(&unit, &frontier, &ring, &ctx).unwrap();
        let mut next_i = Vec::new();
        let mut next_v = Vec::new();
        for (j, &d) in y.iter() {
            if d < dist[j] {
                dist[j] = d;
                next_i.push(j);
                next_v.push(d);
            }
        }
        frontier = SparseVec::from_sorted(150, next_i, next_v).unwrap();
    }
    for v in 0..150 {
        let expect = if levels[v] < 0 { f64::INFINITY } else { levels[v] as f64 };
        assert_eq!(dist[v], expect, "vertex {v}");
    }
}
