//! The metric and workload catalogue: every name the benchmark prints,
//! with its unit and direction. `BENCHMARK.json` is generated from these
//! tables (`gblas-benchmark --print-benchmark-json`) and a unit test
//! holds the committed file to them.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// `(name, why)`: the reason is what `BENCHMARK.json` records.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "bfs",
        "sparse push frontiers on RMAT s18: first-visitor SpMSpV, SPA, sort/bucket merge and the \
         pooled workspace do the work; SpMV and mxm do none",
    ),
    (
        "pagerank",
        "dense-vector SpMV chain on RMAT s17, bandwidth-bound; bypasses SPA, sort, frontiers and \
         mxm, so a frontier-kernel change must show no change here",
    ),
    (
        "triangles",
        "masked integer SpGEMM L*L' under mask L on a skewed symmetric RMAT s14: mxm is nearly \
         all of the solve",
    ),
    (
        "mcl",
        "unmasked f64 SpGEMM with fill-in on uniform ER(4000,6), then transpose/reduce/map/prune: \
         the same mxm layer used the other way round",
    ),
];

/// `(name, unit, better, bound)`: what a user of the system sees. The
/// bound is the share of the parent's median by which the metric may get
/// worse before a change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("solve_s_p50", "s", Lower, 0.25),
    ("medges_per_s", "Medge/s", Higher, 0.25),
    ("dist_solve_s_p50", "s", Lower, 0.25),
    ("sim_s", "sim_s", Lower, 0.10),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MiB", Lower, 0.25),
];

/// `(name, unit, better)`: single-layer metrics of the traced run.
pub const PER_LAYER: [(&str, &str, Better); 87] = [
    // set-up layers
    ("core.gen.graph_s", "s", Lower),
    ("core.io.mtx_roundtrip_s", "s", Lower),
    ("core.container.csr_build_s", "s", Lower),
    ("core.container.csr_scan_gbps_computed", "GB/s", Higher),
    ("core.container.sparsevec_merge_s", "s", Lower),
    ("dist.mat.from_global_s", "s", Lower),
    ("dist.dcsc.convert_s", "s", Lower),
    // frontier kernels
    ("core.ops.spmspv.sort_f0.1_s", "s", Lower),
    ("core.ops.spmspv.sort_f2_s", "s", Lower),
    ("core.ops.spmspv.sort_f20_s", "s", Lower),
    ("core.ops.spmspv.bucket_f0.1_s", "s", Lower),
    ("core.ops.spmspv.bucket_f2_s", "s", Lower),
    ("core.ops.spmspv.bucket_f20_s", "s", Lower),
    ("core.ops.spmspv.flops", "count", Lower),
    ("core.ops.spmspv.sort_elems", "count", Lower),
    ("core.ops.spmspv.atomics", "count", Lower),
    ("core.ops.spmspv.spa_touches", "count", Lower),
    ("core.ops.spmspv.sort_share_f2_wall", "ratio", Lower),
    ("core.ops.spmspv.sort_share_f2_sim", "ratio", Lower),
    ("core.sort.merge_melems_per_s", "Melem/s", Higher),
    ("core.sort.radix_melems_per_s", "Melem/s", Higher),
    ("core.ops.expand.k8_s", "s", Lower),
    // dense-vector kernels
    ("core.ops.spmv.row_s", "s", Lower),
    ("core.ops.spmv.col_s", "s", Lower),
    ("core.ops.spmv.flops_per_byte_computed", "flop/B", Higher),
    // matrix kernels
    ("core.ops.mxm.masked_s", "s", Lower),
    ("core.ops.mxm.unmasked_s", "s", Lower),
    ("core.ops.mxm.flops", "count", Lower),
    ("core.ops.mxm.mflops_per_s", "Mflop/s", Higher),
    ("core.ops.transpose_s", "s", Lower),
    ("core.ops.reduce_rows_s", "s", Lower),
    ("core.ops.select_s", "s", Lower),
    ("core.ops.mat_map_s", "s", Lower),
    // the paper's own operation pairs
    ("core.ops.apply.v1_s", "s", Lower),
    ("core.ops.apply.v2_s", "s", Lower),
    ("core.ops.assign.v1_s", "s", Lower),
    ("core.ops.assign.v2_s", "s", Lower),
    ("core.ops.ewise.mult_s", "s", Lower),
    // allocation and pooling
    ("core.workspace.allocs_per_solve", "count", Lower),
    ("core.workspace.alloc_bytes_per_solve", "B", Lower),
    ("core.workspace.pool_hit_ratio", "ratio", Higher),
    // fork-join runtime
    ("core.par.speedup_2t", "ratio", Higher),
    ("core.par.tasks_per_solve", "count", Lower),
    ("core.par.regions_per_solve", "count", Lower),
    // algorithm drivers
    ("core.backend.kernel_share", "ratio", Higher),
    ("graph.driver_self_share", "ratio", Lower),
    ("graph.iterations", "count", Lower),
    ("graph.solve_s_p90", "s", Lower),
    ("graph.solve_samples", "count", Higher),
    // simulated distributed backend, wall clock
    ("dist.backend.wall_over_shared", "ratio", Lower),
    ("dist.backend.solve_s_p90", "s", Lower),
    ("dist.exec.threaded_over_serial", "ratio", Lower),
    ("dist.exec.supersteps_per_solve", "count", Lower),
    ("dist.ops.spmspv_s", "s", Lower),
    ("dist.ops.spmv_s", "s", Lower),
    ("dist.ops.mxm_s", "s", Lower),
    ("dist.ops.mxm.stages", "count", Lower),
    ("dist.sched.builds", "count", Lower),
    ("dist.sched.replays", "count", Higher),
    ("dist.sched.replay_ratio", "ratio", Higher),
    // simulated distributed backend, simulated clock
    ("dist.comm.msgs_per_solve", "count", Lower),
    ("dist.comm.bytes_per_solve", "B", Lower),
    ("sim.gather_share", "ratio", Lower),
    ("sim.local_share", "ratio", Higher),
    ("sim.scatter_share", "ratio", Lower),
    ("sim.wall_per_sim_s", "ratio", Lower),
    // two-clock pairs: the same ablation on the wall and simulated clocks
    ("graph.bfs.auto_over_push_wall", "ratio", Lower),
    ("graph.bfs.auto_over_push_sim", "ratio", Lower),
    ("graph.bfs.bucket_over_sort_wall", "ratio", Lower),
    ("graph.bfs.bucket_over_sort_sim", "ratio", Lower),
    ("graph.bfs_multi.k8_over_loop_wall", "ratio", Lower),
    ("graph.bfs_multi.k8_over_loop_sim", "ratio", Lower),
    ("dist.sched.off_over_on_wall", "ratio", Higher),
    ("dist.sched.off_over_on_sim", "ratio", Higher),
    ("dist.ops.mxm.summa3d_over_2d_wall", "ratio", Lower),
    ("dist.ops.mxm.summa3d_over_2d_sim", "ratio", Lower),
    ("core.workspace.unpooled_over_pooled_wall", "ratio", Higher),
    // command line, serving path, and the harness itself
    ("cli.wall_s", "s", Lower),
    ("cli.overhead_s", "s", Lower),
    ("bench.serve.qps_batched_k8", "1/s", Higher),
    ("bench.serve.qps_loop", "1/s", Higher),
    ("trace.overhead_share", "ratio", Lower),
    ("trace.self_time_gap_share", "ratio", Lower),
    ("trace.spans", "count", Lower),
    ("harness.failed_share", "ratio", Lower),
    ("harness.threads", "count", Lower),
    ("harness.host_cores", "count", Higher),
];

/// Whether `name` is a valid metric or workload name.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Whether `unit` is a valid unit string.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Check the whole catalogue against the driver's limits.
pub fn validate_catalogue() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err("2 to 8 workloads".into());
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("at most 16 end-to-end and 128 per-layer metrics".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    let units = END_TO_END.iter().map(|m| m.1).chain(PER_LAYER.iter().map(|m| m.1));
    for unit in units {
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?}"));
        }
    }
    for (name, why) in WORKLOADS {
        if why.len() > 200 || why.contains('\n') {
            return Err(format!("workload {name}: why must be one line of at most 200 characters"));
        }
    }
    for (name, _, _, bound) in END_TO_END {
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!("{name}: bound must be in (0, 0.25]"));
        }
    }
    if !END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower) {
        return Err("setup_s (s, lower) must be an end-to-end metric".into());
    }
    Ok(())
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \
                 \"bound\": {bound}}}",
                better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_pattern() {
        assert!(valid_name("core.ops.spmspv.sort_f0.1_s"));
        assert!(valid_name("2d"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Medge/s"));
        assert!(!valid_unit("10^6 edges/s"));
    }

    #[test]
    fn the_catalogue_is_within_the_drivers_limits() {
        validate_catalogue().unwrap();
    }

    /// Every per-layer name ISSUE.md asks for is in the catalogue.
    #[test]
    fn every_name_the_issue_lists_is_emitted() {
        let mut wanted: Vec<String> = [
            "core.gen.graph_s",
            "core.io.mtx_roundtrip_s",
            "core.container.csr_build_s",
            "core.container.csr_scan_gbps_computed",
            "core.container.sparsevec_merge_s",
            "dist.mat.from_global_s",
            "dist.dcsc.convert_s",
            "core.ops.expand.k8_s",
            "core.ops.spmv.row_s",
            "core.ops.spmv.flops_per_byte_computed",
            "core.ops.mxm.flops",
            "core.ops.mxm.mflops_per_s",
            "core.ops.ewise.mult_s",
            "core.backend.kernel_share",
            "graph.driver_self_share",
            "graph.iterations",
            "graph.solve_s_p90",
            "graph.solve_samples",
            "dist.backend.wall_over_shared",
            "dist.backend.solve_s_p90",
            "dist.exec.threaded_over_serial",
            "dist.exec.supersteps_per_solve",
            "dist.ops.mxm.stages",
            "sim.wall_per_sim_s",
            "core.workspace.unpooled_over_pooled_wall",
            "cli.wall_s",
            "cli.overhead_s",
            "bench.serve.qps_batched_k8",
            "bench.serve.qps_loop",
            "trace.overhead_share",
        ]
        .map(String::from)
        .to_vec();
        for merge in ["sort", "bucket"] {
            for f in ["f0.1", "f2", "f20"] {
                wanted.push(format!("core.ops.spmspv.{merge}_{f}_s"));
            }
        }
        for c in ["flops", "sort_elems", "atomics", "spa_touches"] {
            wanted.push(format!("core.ops.spmspv.{c}"));
        }
        for s in ["merge", "radix"] {
            wanted.push(format!("core.sort.{s}_melems_per_s"));
        }
        for m in ["masked", "unmasked"] {
            wanted.push(format!("core.ops.mxm.{m}_s"));
        }
        for op in ["transpose", "reduce_rows", "select", "mat_map"] {
            wanted.push(format!("core.ops.{op}_s"));
        }
        for op in ["apply", "assign"] {
            for v in ["v1", "v2"] {
                wanted.push(format!("core.ops.{op}.{v}_s"));
            }
        }
        for m in ["allocs_per_solve", "alloc_bytes_per_solve", "pool_hit_ratio"] {
            wanted.push(format!("core.workspace.{m}"));
        }
        for m in ["speedup_2t", "tasks_per_solve", "regions_per_solve"] {
            wanted.push(format!("core.par.{m}"));
        }
        for op in ["spmspv", "spmv", "mxm"] {
            wanted.push(format!("dist.ops.{op}_s"));
        }
        for m in ["builds", "replays", "replay_ratio"] {
            wanted.push(format!("dist.sched.{m}"));
        }
        for m in ["msgs_per_solve", "bytes_per_solve"] {
            wanted.push(format!("dist.comm.{m}"));
        }
        for m in ["gather", "local", "scatter"] {
            wanted.push(format!("sim.{m}_share"));
        }
        for pair in [
            "graph.bfs.auto_over_push",
            "graph.bfs.bucket_over_sort",
            "graph.bfs_multi.k8_over_loop",
            "dist.sched.off_over_on",
            "dist.ops.mxm.summa3d_over_2d",
        ] {
            wanted.push(format!("{pair}_wall"));
            wanted.push(format!("{pair}_sim"));
        }
        for name in &wanted {
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name} is not in the catalogue");
        }
        for name in
            ["solve_s_p50", "medges_per_s", "dist_solve_s_p50", "sim_s", "setup_s", "peak_rss_mb"]
        {
            assert!(END_TO_END.iter().any(|m| m.0 == name), "{name} is not end-to-end");
        }
        for name in ["bfs", "pagerank", "triangles", "mcl"] {
            assert!(WORKLOADS.iter().any(|w| w.0 == name));
        }
    }

    /// The committed `BENCHMARK.json` is the generated one.
    #[test]
    fn benchmark_json_is_in_step_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with --print-benchmark-json");
    }
}
