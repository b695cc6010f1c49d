//! Property-based tests of the graph algorithms against independent
//! references and invariants, on randomized graphs of varying density.

use gblas::prelude::*;
use gblas_core::backend::SharedBackend;
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_graph::{
    betweenness_on, bfs, connected_components_on, pagerank, sssp_on, PageRankOptions,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_levels_are_correct(seed in 0u64..500, d in 1usize..6, source in 0usize..100) {
        let a = gen::erdos_renyi(100, d, seed);
        let ctx = ExecCtx::serial();
        let r = bfs(&a, source, &ctx).unwrap();
        // reference queue BFS
        let mut levels = vec![-1i64; 100];
        levels[source] = 0;
        let mut q = std::collections::VecDeque::from([source]);
        while let Some(u) = q.pop_front() {
            let (cols, _) = a.row(u);
            for &v in cols {
                if levels[v] < 0 {
                    levels[v] = levels[u] + 1;
                    q.push_back(v);
                }
            }
        }
        prop_assert_eq!(r.levels.as_slice(), levels.as_slice());
        r.validate(&a, source).unwrap();
    }

    #[test]
    fn sssp_respects_triangle_inequality_and_bfs_bound(seed in 0u64..300, d in 1usize..5) {
        let a = gen::erdos_renyi(80, d, seed);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (dist, _) = sssp_on(&b, &a, &[0], None, SpMSpVOpts::default()).unwrap().remove(0);
        prop_assert_eq!(dist[0], 0.0);
        for (u, v, &w) in a.iter() {
            prop_assert!(dist[v] <= dist[u] + w + 1e-9, "edge {}->{}", u, v);
        }
        // weighted distance is finite exactly where BFS reaches
        let hops = bfs(&a, 0, &ctx).unwrap();
        for v in 0..80 {
            prop_assert_eq!(dist[v].is_finite(), hops.levels[v] >= 0, "vertex {}", v);
        }
    }

    #[test]
    fn cc_labels_are_component_minima(seed in 0u64..300) {
        let a = gen::erdos_renyi_symmetric(70, 2, seed);
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let (labels, _) = connected_components_on(&b, &a, None, SpMSpVOpts::default()).unwrap();
        // label is idempotent under edges and <= own id
        for v in 0..70 {
            prop_assert!(labels[v] <= v);
            prop_assert_eq!(labels[labels[v]], labels[v], "label of label must be fixed");
        }
        for (u, v, _) in a.iter() {
            prop_assert_eq!(labels[u], labels[v], "edge {}-{} crosses components", u, v);
        }
    }

    #[test]
    fn pagerank_mass_conservation_and_positivity(seed in 0u64..300, d in 1usize..8) {
        let a = gen::erdos_renyi(60, d, seed);
        let ctx = ExecCtx::serial();
        let (pr, _) = pagerank(&a, PageRankOptions::default(), &ctx).unwrap();
        let sum: f64 = pr.as_slice().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "mass {}", sum);
        let floor = 0.15 / 60.0;
        for v in 0..60 {
            prop_assert!(pr[v] >= floor - 1e-12, "vertex {} below teleport floor", v);
        }
    }

    #[test]
    fn betweenness_nonnegative_and_zero_on_sinks(seed in 0u64..150) {
        let a = gen::erdos_renyi(40, 3, seed);
        let sources: Vec<usize> = (0..40).collect();
        let ctx = ExecCtx::serial();
        let bc = betweenness_on(&SharedBackend::new(&ctx), &a, &sources).unwrap();
        for v in 0..40 {
            prop_assert!(bc[v] >= -1e-9);
            // a vertex with no out-edges can't be interior to any path
            if a.row_nnz(v) == 0 {
                prop_assert!(bc[v].abs() < 1e-9, "sink {} has bc {}", v, bc[v]);
            }
        }
    }

    #[test]
    fn distributed_bfs_agrees_on_random_grids(seed in 0u64..100, pr_g in 1usize..3, pc_g in 1usize..3) {
        let a = gen::erdos_renyi(60, 3, seed);
        let ctx = ExecCtx::serial();
        let shared = bfs(&a, 0, &ctx).unwrap();
        let grid = ProcGrid::new(pr_g, pc_g);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
        let (dist, _) = gblas_graph::bfs_dist(&da, 0, &dctx).unwrap();
        prop_assert_eq!(dist.levels, shared.levels);
    }
}
