//! Generators for every figure of the paper.
//!
//! Each `figN` function executes the paper's workload for real (the same
//! kernels the library ships), collects the measured work/communication
//! profiles, and prices them with the calibrated Edison model. See
//! DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured notes.

use crate::output::{FigPoint, Figure};
use crate::workloads;
use crate::{NODES, THREADS};
use gblas_core::ops::apply::apply_vec_inplace;
use gblas_core::ops::ewise::{ewise_filter_atomic, EwiseVariant};
use gblas_core::ops::spmspv::{spmspv_first_visitor, MergeStrategy, SpMSpVOpts};
use gblas_core::par::ExecCtx;
use gblas_core::sort::SortAlgo;
use gblas_core::trace::{MetricsRegistry, TraceRecorder};
use gblas_dist::ops::apply::{apply_v1 as dist_apply_v1, apply_v2 as dist_apply_v2};
use gblas_dist::ops::assign::{assign_v1 as dist_assign_v1, assign_v2 as dist_assign_v2};
use gblas_dist::ops::ewise::ewise_mult_dist;
use gblas_dist::ops::spmspv::spmspv_dist;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, DistDenseVec, DistSparseVec, ProcGrid};
use gblas_sim::{CostModel, MachineConfig, SimReport};
use std::sync::{Arc, OnceLock};

/// Locale counts used by Fig 10 (colocated on one node).
pub const COLOCATED: &[usize] = &[1, 2, 4, 8, 16, 32];

/// Shared recorder/metrics installed by [`enable_tracing`]; every
/// simulated [`DistCtx`] the harness builds reports into it.
static TRACING: OnceLock<(TraceRecorder, Arc<MetricsRegistry>)> = OnceLock::new();

/// Capture traces for every figure run in this process (`--trace` in the
/// `figures` binary). Returns the shared recorder; subsequent calls return
/// the same one. Ops from all figures land end-to-end on one simulated
/// timeline.
pub fn enable_tracing() -> (TraceRecorder, Arc<MetricsRegistry>) {
    let (r, m) =
        TRACING.get_or_init(|| (TraceRecorder::new(), Arc::new(MetricsRegistry::default())));
    (r.clone(), Arc::clone(m))
}

/// Build a `DistCtx` under the harness configuration, instrumented when
/// [`enable_tracing`] was called.
fn dist_ctx(machine: MachineConfig) -> DistCtx {
    let dctx = match TRACING.get() {
        Some((r, m)) => DistCtx::with_instrumentation(machine, r.clone(), Arc::clone(m)),
        None => DistCtx::new(machine),
    };
    dctx.with_config(crate::run_config())
}

/// Price a shared-memory execution at `t` simulated threads.
fn run_shm(t: usize, f: impl FnOnce(&ExecCtx)) -> SimReport {
    let ctx = ExecCtx::simulated(t);
    ctx.workspace().set_enabled(crate::run_config().workspace);
    f(&ctx);
    CostModel::edison().profile_time(&ctx.take_profile(), t)
}

/// Fig 1: Apply, shared-memory (left) and distributed (right), 10M-nonzero
/// random sparse vectors.
pub fn fig1(scale: usize) -> Vec<Figure> {
    let nnz = workloads::scaled(10_000_000, scale, 10_000);
    let global = workloads::vector(nnz, 10);
    let bump = |v: f64| v * 1.000001;

    let mut shm = Figure::new("fig01-shm", "Apply, shared memory, nnz=10M (Fig 1 left)", "threads");
    for version in ["Apply1", "Apply2"] {
        let mut points = Vec::new();
        for &t in THREADS {
            let mut x = global.clone();
            let report = run_shm(t, |ctx| apply_vec_inplace(&mut x, &bump, ctx));
            points.push(FigPoint { x: t, report });
        }
        shm.push_series(version, points);
    }

    let mut dist = Figure::new(
        "fig01-dist",
        "Apply, distributed memory, nnz=10M, 24 threads/node (Fig 1 right)",
        "nodes",
    );
    for version in ["Apply1", "Apply2"] {
        let mut points = Vec::new();
        for &p in NODES {
            let mut x = DistSparseVec::from_global(&global, p);
            let dctx = dist_ctx(MachineConfig::edison_cluster(p, 24));
            let report = if version == "Apply1" {
                dist_apply_v1(&mut x, &bump, &dctx).expect("apply_v1")
            } else {
                dist_apply_v2(&mut x, &bump, &dctx).expect("apply_v2")
            };
            points.push(FigPoint { x: p, report });
        }
        dist.push_series(version, points);
    }
    vec![shm, dist]
}

/// Fig 2: Assign, shared-memory and distributed, 1M-nonzero vectors.
pub fn fig2(scale: usize) -> Vec<Figure> {
    let nnz = workloads::scaled(1_000_000, scale, 10_000);
    let b = workloads::vector(nnz, 20);

    let mut shm = Figure::new("fig02-shm", "Assign, shared memory, nnz=1M (Fig 2 left)", "threads");
    for version in ["Assign1", "Assign2"] {
        let mut points = Vec::new();
        for &t in THREADS {
            let mut a = gblas_core::container::SparseVec::new(b.capacity());
            let report = run_shm(t, |ctx| {
                if version == "Assign1" {
                    gblas_core::ops::assign::assign_v1(&mut a, &b, ctx).expect("assign1");
                } else {
                    gblas_core::ops::assign::assign_v2(&mut a, &b, ctx).expect("assign2");
                }
            });
            points.push(FigPoint { x: t, report });
        }
        shm.push_series(version, points);
    }

    let mut dist = Figure::new(
        "fig02-dist",
        "Assign, distributed memory, nnz=1M, 24 threads/node (Fig 2 right)",
        "nodes",
    );
    for version in ["Assign1", "Assign2"] {
        let mut points = Vec::new();
        for &p in NODES {
            let bd = DistSparseVec::from_global(&b, p);
            let mut a = DistSparseVec::empty(b.capacity(), p);
            let dctx = dist_ctx(MachineConfig::edison_cluster(p, 24));
            let report = if version == "Assign1" {
                dist_assign_v1(&mut a, &bd, &dctx).expect("assign_v1")
            } else {
                dist_assign_v2(&mut a, &bd, &dctx).expect("assign_v2")
            };
            points.push(FigPoint { x: p, report });
        }
        dist.push_series(version, points);
    }
    vec![shm, dist]
}

/// Fig 3: distributed Assign2 at 1M and 100M nonzeros.
pub fn fig3(scale: usize) -> Vec<Figure> {
    let mut fig = Figure::new(
        "fig03",
        "Assign2, distributed, nnz in {1M, 100M}, 24 threads/node (Fig 3)",
        "nodes",
    );
    for (label, base) in [("nnz=1M", 1_000_000usize), ("nnz=100M", 100_000_000)] {
        let nnz = workloads::scaled(base, scale, 10_000);
        let b = workloads::vector(nnz, 30);
        let mut points = Vec::new();
        for &p in NODES {
            let bd = DistSparseVec::from_global(&b, p);
            let mut a = DistSparseVec::empty(b.capacity(), p);
            let dctx = dist_ctx(MachineConfig::edison_cluster(p, 24));
            let report = dist_assign_v2(&mut a, &bd, &dctx).expect("assign_v2");
            points.push(FigPoint { x: p, report });
        }
        fig.push_series(label, points);
    }
    vec![fig]
}

/// Fig 4: shared-memory eWiseMult (sparse × dense boolean filter keeping
/// about half the entries) at 10K, 1M and 100M nonzeros.
pub fn fig4(scale: usize) -> Vec<Figure> {
    let mut fig =
        Figure::new("fig04", "eWiseMult, shared memory, nnz in {10K, 1M, 100M} (Fig 4)", "threads");
    for (label, base, min) in [
        ("nnz=10K", 10_000usize, 10_000usize),
        ("nnz=1M", 1_000_000, 10_000),
        ("nnz=100M", 100_000_000, 10_000),
    ] {
        let nnz = workloads::scaled(base, scale, min);
        let (x, y) = workloads::ewise_pair(nnz, 40);
        let mut points = Vec::new();
        for &t in THREADS {
            let report = run_shm(t, |ctx| {
                let _ = ewise_filter_atomic(&x, &y, &|_: f64, keep| keep, ctx).expect("ewise");
            });
            points.push(FigPoint { x: t, report });
        }
        fig.push_series(label, points);
    }
    vec![fig]
}

/// Fig 5: distributed eWiseMult at 1 thread/node (left) and 24
/// threads/node (right), 1M and 100M nonzeros.
pub fn fig5(scale: usize) -> Vec<Figure> {
    let mut out = Vec::new();
    for (fig_id, title, threads) in [
        ("fig05-1t", "eWiseMult, distributed, 1 thread/node (Fig 5 left)", 1usize),
        ("fig05-24t", "eWiseMult, distributed, 24 threads/node (Fig 5 right)", 24),
    ] {
        let mut fig = Figure::new(fig_id, title, "nodes");
        for (label, base) in [("nnz=1M", 1_000_000usize), ("nnz=100M", 100_000_000)] {
            let nnz = workloads::scaled(base, scale, 10_000);
            let (x, y) = workloads::ewise_pair(nnz, 50);
            let mut points = Vec::new();
            for &p in NODES {
                let dx = DistSparseVec::from_global(&x, p);
                let dy = DistDenseVec::from_global(&y, p);
                let dctx = dist_ctx(MachineConfig::edison_cluster(p, threads));
                let (_, report) =
                    ewise_mult_dist(&dx, &dy, &|_: f64, keep| keep, EwiseVariant::Atomic, &dctx)
                        .expect("ewise dist");
                points.push(FigPoint { x: p, report });
            }
            fig.push_series(label, points);
        }
        out.push(fig);
    }
    out
}

/// The SpMSpV the paper measures in Figs 7–9: Listing 7's atomic SPA
/// and global merge sort (the library's default is the bucketed merge).
pub const PAPER_MERGE: SpMSpVOpts =
    SpMSpVOpts { sort: SortAlgo::Merge, merge: MergeStrategy::SortBased };

/// The three SpMSpV configurations of Figs 7–9: `(d, f%)`.
pub const SPMSPV_CONFIGS: &[(usize, usize)] = &[(16, 2), (4, 2), (16, 20)];

/// Fig 7: shared-memory SpMSpV component breakdown (SPA / Sorting /
/// Output) on Erdős–Rényi matrices with n = 1M, under the given SpMSpV
/// options: the paper's sort-based merge is [`PAPER_MERGE`]; the same
/// breakdown can be produced under the sort-free bucketed merge.
pub fn fig7_with(scale: usize, opts: SpMSpVOpts) -> Vec<Figure> {
    let n = workloads::scaled(1_000_000, scale, 20_000);
    let mut out = Vec::new();
    for &(d, f) in SPMSPV_CONFIGS {
        let a = workloads::er_matrix(n, d, 70 + d as u64);
        let x = workloads::spmspv_vector(n, f, 70 + d as u64 + f as u64);
        let mut fig = Figure::new(
            &format!("fig07-d{d}-f{f}"),
            &format!(
                "SpMSpV shared memory ({} merge), ER n=1M d={d} f={f}% (Fig 7)",
                opts.merge.name()
            ),
            "threads",
        );
        let mut points = Vec::new();
        for &t in THREADS {
            let report = run_shm(t, |ctx| {
                let _ = spmspv_first_visitor(&a, &x, None, opts, ctx).expect("spmspv");
            });
            points.push(FigPoint { x: t, report });
        }
        fig.push_series("components", points);
        out.push(fig);
    }
    out
}

/// Figs 8–9: distributed SpMSpV component breakdown (Gather / Local
/// multiply / Scatter). `n_base` is 1M for Fig 8 and 10M for Fig 9.
fn spmspv_dist_figure(
    fig_prefix: &str,
    n_base: usize,
    scale: usize,
    opts: SpMSpVOpts,
) -> Vec<Figure> {
    use gblas_dist::ops::spmspv::{spmspv_dist_with, CommStrategy};
    let n = workloads::scaled(n_base, scale, 20_000);
    let mut out = Vec::new();
    for &(d, f) in SPMSPV_CONFIGS {
        let a = workloads::er_matrix(n, d, 80 + d as u64);
        let x = workloads::spmspv_vector(n, f, 80 + d as u64 + f as u64);
        let mut fig = Figure::new(
            &format!("{fig_prefix}-d{d}-f{f}"),
            &format!(
                "SpMSpV distributed ({} merge), ER n={n} d={d} f={f}%, 24 threads/node ({})",
                opts.merge.name(),
                if n_base >= 10_000_000 { "Fig 9" } else { "Fig 8" }
            ),
            "nodes",
        );
        let mut points = Vec::new();
        for &p in NODES {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dctx = dist_ctx(MachineConfig::edison_cluster(p, 24));
            let (_, report) = spmspv_dist_with(&da, &dx, None, CommStrategy::Fine, opts, &dctx)
                .expect("spmspv dist");
            points.push(FigPoint { x: p, report });
        }
        fig.push_series("components", points);
        out.push(fig);
    }
    out
}

/// Fig 8: distributed SpMSpV, n = 1M, under the given SpMSpV options.
pub fn fig8_with(scale: usize, opts: SpMSpVOpts) -> Vec<Figure> {
    spmspv_dist_figure("fig08", 1_000_000, scale, opts)
}

/// Fig 9: distributed SpMSpV, n = 10M, under the given SpMSpV options.
pub fn fig9_with(scale: usize, opts: SpMSpVOpts) -> Vec<Figure> {
    spmspv_dist_figure("fig09", 10_000_000, scale, opts)
}

/// Fig 10: Assign with 1–32 locales colocated on a single node, 1 thread
/// per locale, 10K nonzeros.
pub fn fig10(_scale: usize) -> Vec<Figure> {
    let b = workloads::vector(10_000, 100);
    let mut fig = Figure::new(
        "fig10",
        "Assign, multiple locales on one node, 1 thread/locale, nnz=10K (Fig 10)",
        "locales",
    );
    for version in ["Assign1", "Assign2"] {
        let mut points = Vec::new();
        for &locales in COLOCATED {
            let bd = DistSparseVec::from_global(&b, locales);
            let mut a = DistSparseVec::empty(b.capacity(), locales);
            let dctx = dist_ctx(MachineConfig::edison_colocated(locales));
            let report = if version == "Assign1" {
                dist_assign_v1(&mut a, &bd, &dctx).expect("assign_v1")
            } else {
                dist_assign_v2(&mut a, &bd, &dctx).expect("assign_v2")
            };
            points.push(FigPoint { x: locales, report });
        }
        fig.push_series(version, points);
    }
    vec![fig]
}

/// Simulated ablations of the paper's suggested improvements (DESIGN.md
/// §7), priced on the same Edison model as the figures:
///
/// * radix vs merge sort inside SpMSpV ("a less expensive integer sorting
///   algorithm (e.g., radix sort) is expected to reduce the sorting
///   cost", §III-D);
/// * atomic vs thread-private/prefix-sum compaction in eWiseMult ("we can
///   avoid the atomic variable", §III-C);
/// * fine-grained vs bulk-synchronous communication in the distributed
///   SpMSpV (§IV).
pub fn fig_ablations(scale: usize) -> Vec<Figure> {
    let mut out = Vec::new();

    // --- merge-strategy ablation on the Fig 7 flagship config: the two
    // comparison sorts versus the sort-free bucket merge ---
    let n = workloads::scaled(1_000_000, scale, 20_000);
    let a = workloads::er_matrix(n, 16, 170);
    let x = workloads::spmspv_vector(n, 2, 171);
    let mut sort_fig = Figure::new(
        "ablation-sort",
        "SpMSpV merge step: merge/radix sort vs sort-free buckets (ER n=1M d=16 f=2%)",
        "threads",
    );
    for (label, opts) in [
        ("merge", PAPER_MERGE),
        ("radix", SpMSpVOpts { sort: SortAlgo::Radix, ..PAPER_MERGE }),
        ("bucket", SpMSpVOpts::with_merge(MergeStrategy::Bucketed)),
    ] {
        let mut points = Vec::new();
        for &t in THREADS {
            let report = run_shm(t, |ctx| {
                let _ = spmspv_first_visitor(&a, &x, None, opts, ctx).expect("spmspv");
            });
            points.push(FigPoint { x: t, report });
        }
        sort_fig.push_series(label, points);
    }
    out.push(sort_fig);

    // --- compaction ablation on the Fig 4 flagship size ---
    let nnz = workloads::scaled(100_000_000, scale.max(10), 100_000);
    let (ex, ey) = workloads::ewise_pair(nnz, 172);
    let mut comp_fig = Figure::new(
        "ablation-compaction",
        "eWiseMult compaction: atomic fetch-add vs thread-private + prefix sum",
        "threads",
    );
    for (label, variant) in [("atomic", EwiseVariant::Atomic), ("prefix", EwiseVariant::Prefix)] {
        let mut points = Vec::new();
        for &t in THREADS {
            let report = run_shm(t, |ctx| {
                let _ =
                    gblas_core::ops::ewise::ewise_filter(&ex, &ey, &|_: f64, k| k, variant, ctx)
                        .expect("ewise");
            });
            points.push(FigPoint { x: t, report });
        }
        comp_fig.push_series(label, points);
    }
    out.push(comp_fig);

    // --- communication ablation on the Fig 8 flagship config ---
    let nc = workloads::scaled(1_000_000, scale, 20_000);
    let ac = workloads::er_matrix(nc, 16, 173);
    let xc = workloads::spmspv_vector(nc, 2, 174);
    let mut comm_fig = Figure::new(
        "ablation-comm",
        "Distributed SpMSpV: Listing-8 fine-grained vs bulk-synchronous (§IV)",
        "nodes",
    );
    for (label, bulk) in [("fine-grained", false), ("bulk", true)] {
        let mut points = Vec::new();
        for &p in NODES {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&ac, grid);
            let dx = DistSparseVec::from_global(&xc, p);
            let dctx = dist_ctx(MachineConfig::edison_cluster(p, 24));
            let (_, report) = if bulk {
                gblas_dist::ops::spmspv::spmspv_dist_bulk(&da, &dx, &dctx).expect("bulk")
            } else {
                spmspv_dist(&da, &dx, &dctx).expect("fine")
            };
            points.push(FigPoint { x: p, report });
        }
        comm_fig.push_series(label, points);
    }
    out.push(comm_fig);
    out
}

/// Beyond-the-paper node sweep of the four analytics the backend-generic
/// algorithm layer newly runs distributed (triangles, k-core, MIS,
/// betweenness): each point executes the *same* generic algorithm text
/// as the shared-memory run, on the simulated Edison cluster, and
/// reports the priced comm/compute ledger. Exposed as `--fig algorithms`
/// in the `figures` binary.
pub fn fig_algorithms(scale: usize) -> Vec<Figure> {
    let n = workloads::scaled(100_000, scale, 2_000);
    let a = gblas_core::gen::erdos_renyi_symmetric(n, 8, 175);
    let mut fig = Figure::new(
        "algorithms-dist",
        "Newly-distributed analytics via the backend trait (ER symmetric d=8)",
        "nodes",
    );
    type Runner = fn(&DistCsrMatrix<f64>, &DistCtx) -> SimReport;
    let runners: [(&str, Runner); 4] = [
        ("triangles", |da, dctx| gblas_graph::triangle_count_dist(da, dctx).expect("triangles").1),
        ("kcore", |da, dctx| {
            let b = DistBackend::new(dctx);
            gblas_graph::core_numbers_on(&b, da).expect("kcore");
            b.take_report()
        }),
        ("mis", |da, dctx| {
            let b = DistBackend::new(dctx);
            gblas_graph::maximal_independent_set_on(&b, da, 42).expect("mis");
            b.take_report()
        }),
        ("bc", |da, dctx| {
            let b = DistBackend::new(dctx);
            gblas_graph::betweenness_on(&b, da, &[0, 1, 2, 3]).expect("bc");
            b.take_report()
        }),
    ];
    for (label, run) in runners {
        let mut points = Vec::new();
        for &p in NODES {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = dist_ctx(MachineConfig::edison_cluster(grid.locales(), 24));
            let report = run(&da, &dctx);
            points.push(FigPoint { x: p, report });
        }
        fig.push_series(label, points);
    }
    vec![fig]
}

/// Beyond-the-paper observability figure (`--fig imbalance`): the
/// trace profiler's whole-run load-imbalance factor (max/mean locale
/// work) versus locale count for BFS and PageRank, alongside the mean
/// per-locale busy/comm/idle split the factor summarizes. Each point
/// traces its own run on a dedicated recorder (independent of `--trace`'s
/// process-global one), profiles the span tree, and reports the derived
/// quantities — the chart version of `gblas-cli profile`.
pub fn fig_imbalance(scale: usize) -> Vec<Figure> {
    use gblas_core::trace::profile::profile;
    use gblas_dist::ops::spmspv::CommStrategy;

    let n = workloads::scaled(100_000, scale, 2_000);
    let a = workloads::er_matrix(n, 8, 176);
    let mut fig = Figure::new(
        "imbalance",
        "Load imbalance (max/mean locale work) vs locales, ER d=8",
        "nodes",
    );
    for algo in ["bfs", "pagerank"] {
        let mut points = Vec::new();
        for &p in NODES {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24))
                .with_config(crate::run_config());
            dctx.enable_tracing();
            // BFS uses the paper's fine-grained Listing-8 gather, PageRank
            // the aggregated bulk path — matching the CLI's strategy split.
            let strategy = if algo == "bfs" { CommStrategy::Fine } else { CommStrategy::Bulk };
            let backend = DistBackend::with_strategy(&dctx, strategy);
            if algo == "bfs" {
                gblas_graph::bfs_on(&backend, &da, &[0], None, SpMSpVOpts::default()).expect("bfs");
            } else {
                gblas_graph::pagerank_on(&backend, &da, gblas_graph::PageRankOptions::default())
                    .expect("pagerank");
            }
            let prof = profile(&dctx.recorder().snapshot());
            let locales = prof.locales.max(1) as f64;
            let mut report = SimReport::default();
            report.push("imbalance", prof.imbalance());
            report.push("busy", prof.locale_totals.iter().map(|u| u.busy).sum::<f64>() / locales);
            report.push("comm", prof.locale_totals.iter().map(|u| u.comm).sum::<f64>() / locales);
            report.push("idle", prof.locale_totals.iter().map(|u| u.idle).sum::<f64>() / locales);
            points.push(FigPoint { x: p, report });
        }
        fig.push_series(algo, points);
    }
    vec![fig]
}

/// Beyond-the-paper ablation (`--fig direction`): direction-optimizing
/// BFS under the adaptive selection policy versus the two static
/// policies, on a skewed RMAT graph where neither static direction wins
/// everywhere — push wastes edge traversals on the hub-dominated middle
/// levels, pull wastes full-vertex scans on the sparse head and tail.
/// `auto` switches per level from the measured frontier density, so its
/// priced total should match or beat the best static policy at every
/// node count (the `selection-smoke` CI job gates on exactly that).
pub fn fig_direction(scale: usize) -> Vec<Figure> {
    use gblas_core::ops::selection::SelectionPolicy;
    use gblas_dist::ops::spmspv::CommStrategy;

    // Floor of 2^16 vertices: below that the full-vertex pull scans are
    // so cheap that static pull wins every level and the sweep shows
    // nothing. RMAT wants a power-of-two count: floor log2 of the target.
    let target = workloads::scaled(1 << 22, scale, 1 << 16);
    let rmat_scale = usize::BITS - 1 - target.leading_zeros();
    let a = gblas_core::gen::rmat(rmat_scale, 16, 177);
    let title = format!(
        "Direction-optimizing BFS: auto vs static push/pull (RMAT scale {rmat_scale} ef=16)"
    );
    let mut fig = Figure::new("direction", &title, "nodes");
    for (label, policy) in [
        ("push", SelectionPolicy::Push),
        ("pull", SelectionPolicy::Pull),
        ("auto", SelectionPolicy::Auto),
    ] {
        let mut points = Vec::new();
        for &p in NODES {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = dist_ctx(MachineConfig::edison_cluster(grid.locales(), 24));
            let (_, _, report) = gblas_graph::bfs_selected_dist(
                &da,
                0,
                policy,
                CommStrategy::Bulk,
                SpMSpVOpts::default(),
                &dctx,
            )
            .expect("bfs_selected");
            points.push(FigPoint { x: p, report });
        }
        fig.push_series(label, points);
    }
    vec![fig]
}

/// Node counts for the SpGEMM sweep: all perfect squares so the
/// single-stage baseline (square grids only) can run at every point.
pub const SPGEMM_NODES: &[usize] = &[1, 4, 16, 64, 256];

/// Beyond-the-paper sweep (`--fig spgemm`): hypersparse SpGEMM (`A·A`
/// over plus-times on an RMAT graph) priced at 1–256 simulated nodes,
/// three algorithms per point:
///
/// * **single** — the single-stage SUMMA baseline
///   (`single_stage_summa`): whole CSR blocks broadcast per stage,
///   square grids only. Its wire format carries a
///   full `rowptr` per block, which at high node counts dwarfs the
///   nonzeros — the hypersparse failure mode DCSC exists to fix.
/// * **summa2d** — the multi-stage SUMMA: per-stage DCSC/CSR column
///   slices whose wire bytes scale with *occupied* rows and nonzeros,
///   each locale's pass over its panels on the dense SPA shared `mxm`
///   runs.
/// * **summa3d** — the communication-avoiding variant: the same
///   multiply on a `total/L`-locale subgrid with `L = auto_layers`
///   replication layers; stages are dealt to layers by estimated flops
///   and partial results merge with a binomial allreduce. Smaller broadcast groups
///   per stage buy a merge tree at the end — the trade pays off once
///   broadcast fan-out dominates, i.e. at the largest node counts.
///
/// Two RMAT scales so the crossovers are visible on both a graph whose
/// blocks go hypersparse early and one that stays denser longer.
pub fn fig_spgemm(scale: usize) -> Vec<Figure> {
    use gblas_core::algebra::semirings;
    use gblas_dist::ops::mxm::{auto_layers, mxm_dist_masked_with, MxmAlgo};

    let mut figs = Vec::new();
    for base in [1usize << 14, 1 << 16] {
        let target = workloads::scaled(base, scale, 1 << 9);
        let rmat_scale = usize::BITS - 1 - target.leading_zeros();
        let a = gblas_core::gen::rmat(rmat_scale, 8, 331);
        let title = format!(
            "Hypersparse SpGEMM: single-stage vs multi-stage vs 3-D SUMMA \
             (RMAT scale {rmat_scale} ef=8, A·A plus-times)"
        );
        let mut fig = Figure::new(&format!("spgemm-s{rmat_scale}"), &title, "nodes");
        for algo_name in ["single", "summa2d", "summa3d"] {
            let mut points = Vec::new();
            for &nodes in SPGEMM_NODES {
                let threed = algo_name == "summa3d";
                let layers = if threed { auto_layers(nodes) } else { 1 };
                let da = DistCsrMatrix::from_global(&a, ProcGrid::square_for(nodes / layers));
                let dctx = dist_ctx(MachineConfig::edison_cluster(nodes, 24));
                let report = if algo_name == "single" {
                    single_stage_summa(&da, &dctx)
                } else {
                    let algo = if threed { MxmAlgo::Summa3d { layers } } else { MxmAlgo::Summa2d };
                    let ring = semirings::plus_times_f64();
                    mxm_dist_masked_with::<f64, f64, f64, _, _, bool>(
                        &da, &da, &ring, None, algo, &dctx,
                    )
                    .expect("spgemm")
                    .1
                };
                points.push(FigPoint { x: nodes, report });
            }
            fig.push_series(algo_name, points);
        }
        figs.push(fig);
    }
    figs
}

/// The `single` series of `--fig spgemm`: `A · A` over plus-times by
/// single-stage-per-block SUMMA on a square grid — whole CSR blocks on
/// the wire (row pointers included), one machine-wide superstep per grid
/// column, each stage multiplied by shared `mxm` and added into the
/// stationary block. The baseline the multi-stage engine is measured
/// against, written on the public distributed API and priced like any op.
fn single_stage_summa(da: &DistCsrMatrix<f64>, dctx: &DistCtx) -> SimReport {
    use gblas_core::container::CsrMatrix;
    use gblas_core::ops::{ewise_mat::ewise_add_mat, mxm::mxm};
    use gblas_core::par::Profile;
    use gblas_dist::ops::mxm::{PHASE_BCAST, PHASE_LOCAL};

    let mut trace = dctx.op("mxm_dist");
    let grid = da.grid();
    let stages = grid.pc();
    let ring = gblas_core::algebra::semirings::plus_times_f64();
    let wire = |blk: &CsrMatrix<f64>| gblas_dist::dcsc::csr_wire_bytes(blk.nrows(), blk.nnz(), 8);
    let mut state: Vec<(CsrMatrix<f64>, Profile, Profile)> = (0..grid.locales())
        .map(|l| {
            let c = CsrMatrix::empty(da.row_range(l).len(), da.col_range(l).len());
            (c, Profile::default(), Profile::default())
        })
        .collect();
    for k in 0..stages {
        dctx.for_each_locale_state(&mut state, |l, (c_block, local, bcast)| {
            let (r, c) = grid.coords(l);
            let (a_blk, b_blk) = (da.block(grid.locale(r, k)), da.block(grid.locale(k, c)));
            if c == k {
                for peer in grid.row_locales(r).filter(|&peer| peer != l) {
                    dctx.comm.bulk(PHASE_BCAST, l, peer, 1, wire(a_blk))?;
                }
            }
            if r == k {
                for peer in grid.col_locales(c).filter(|&peer| peer != l) {
                    dctx.comm.bulk(PHASE_BCAST, l, peer, 1, wire(b_blk))?;
                }
            }
            bcast.counters_mut(PHASE_BCAST).bytes_moved += wire(a_blk) + wire(b_blk);
            let lctx = dctx.locale_ctx_for(l);
            let partial = mxm(a_blk, b_blk, &ring, None::<&CsrMatrix<bool>>, &lctx)?;
            *c_block = ewise_add_mat(&*c_block, &partial, &ring.add, &lctx)?;
            let folded = local.counters_mut(PHASE_LOCAL);
            for (_, counters) in lctx.take_profile().iter() {
                folded.merge(counters);
            }
            Ok(())
        })
        .expect("single-stage SUMMA");
    }
    let (bcast, local): (Vec<Profile>, Vec<Profile>) =
        state.into_iter().map(|(_, local, bcast)| (bcast, local)).unzip();
    trace
        .attr("algo", "single")
        .attr("stages", stages)
        .attr("grid", format_args!("{}x{}", grid.pr(), grid.pc()))
        .nnz(2 * da.nnz() as u64);
    trace.spawn(PHASE_BCAST, stages);
    trace.compute(PHASE_BCAST, &bcast);
    trace.compute(PHASE_LOCAL, &local);
    trace.finish()
}

/// Run one figure by number with explicit SpMSpV options; the SpMSpV
/// figures (7–9) honor the merge strategy, the rest ignore it. Figure 6
/// is the SPA diagram — nothing to measure — so it returns an empty set.
pub fn run_fig_with(n: usize, scale: usize, opts: SpMSpVOpts) -> Vec<Figure> {
    match n {
        1 => fig1(scale),
        2 => fig2(scale),
        3 => fig3(scale),
        4 => fig4(scale),
        5 => fig5(scale),
        6 => Vec::new(),
        7 => fig7_with(scale, opts),
        8 => fig8_with(scale, opts),
        9 => fig9_with(scale, opts),
        10 => fig10(scale),
        _ => panic!("the paper has figures 1-10, got {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Heavily scaled-down shape checks: these run the full pipeline of
    // every figure and assert the paper's qualitative findings.

    const S: usize = 1000; // divide all big sizes by 1000

    /// Speedup of `series` between its first point and the point at `x`.
    fn speedup(fig: &Figure, series: &str, x: usize) -> Option<f64> {
        let s = fig.series.iter().find(|s| s.name == series)?;
        let at = s.points.iter().find(|p| p.x == x)?;
        Some(s.points.first()?.report.total() / at.report.total())
    }

    #[test]
    fn fig1_shapes() {
        let figs = fig1(200); // nnz = 50K: big enough that spawn overhead is amortized
        let shm = &figs[0];
        // near-perfect scaling at 24-ish threads (we check 16 for the
        // scaled-down size)
        let sp = speedup(shm, "Apply1", 16).unwrap();
        assert!(sp > 8.0, "shared-memory Apply speedup {sp}");
        let dist = &figs[1];
        // Apply1 collapses versus Apply2 beyond one node
        let a1 = dist.series[0].points.iter().find(|p| p.x == 8).unwrap().report.total();
        let a2 = dist.series[1].points.iter().find(|p| p.x == 8).unwrap().report.total();
        assert!(a1 > 20.0 * a2, "Apply1 {a1} vs Apply2 {a2}");
    }

    #[test]
    fn fig2_shapes() {
        let figs = fig2(S);
        let shm = &figs[0];
        // Assign2 is roughly an order of magnitude faster than Assign1
        let a1 = shm.series[0].points[0].report.total();
        let a2 = shm.series[1].points[0].report.total();
        assert!(a1 > 4.0 * a2, "Assign1 {a1} vs Assign2 {a2} at 1 thread");
        let dist = &figs[1];
        let d1 = dist.series[0].points.iter().find(|p| p.x == 16).unwrap().report.total();
        let d2 = dist.series[1].points.iter().find(|p| p.x == 16).unwrap().report.total();
        assert!(d1 > 20.0 * d2, "distributed Assign1 {d1} vs Assign2 {d2}");
    }

    #[test]
    fn fig3_large_scales_small_flattens() {
        let figs = fig3(100); // 1M -> 10K, 100M -> 1M
        let fig = &figs[0];
        let sp_large = speedup(fig, "nnz=100M", 16).unwrap();
        assert!(sp_large > 3.0, "100M-series speedup {sp_large}");
    }

    #[test]
    fn fig4_large_input_scales() {
        let figs = fig4(100);
        let sp = speedup(&figs[0], "nnz=100M", 16).unwrap();
        assert!(sp > 5.0, "eWiseMult 100M speedup {sp}");
    }

    #[test]
    fn fig7_sort_dominates() {
        let figs = fig7_with(50, PAPER_MERGE); // n = 20K
        for fig in &figs {
            let p1 = &fig.series[0].points[0].report;
            assert!(
                p1.phase("sort") > p1.phase("spa"),
                "{}: sorting should dominate the SPA step ({} vs {})",
                fig.id,
                p1.phase("sort"),
                p1.phase("spa")
            );
        }
    }

    #[test]
    fn fig8_gather_grows_and_dominates() {
        let figs = fig8_with(50, PAPER_MERGE);
        let fig = &figs[0]; // d=16, f=2%
        let at = |x: usize| fig.series[0].points.iter().find(|p| p.x == x).unwrap().report.clone();
        let r1 = at(1);
        let r16 = at(16);
        assert!(r16.phase("gather") > 5.0 * r1.phase("gather"));
        assert!(r16.phase("gather") > r16.phase("local"));
        // local multiply scales
        assert!(r16.phase("local") < r1.phase("local"));
    }

    #[test]
    fn fig_spgemm_multistage_wins_at_scale_and_3d_broadcasts_less() {
        let figs = fig_spgemm(16); // RMAT scales 10 and 12
        assert_eq!(figs.len(), 2);
        let mut multistage_wins = false;
        let mut threed_broadcasts_less = false;
        for fig in &figs {
            let series = |name: &str| {
                fig.series.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("{name}"))
            };
            let at = |name: &str, x: usize| {
                series(name).points.iter().find(|p| p.x == x).unwrap().report.total()
            };
            // The acceptance shape: multi-stage DCSC SUMMA strictly beats
            // the single-stage CSR broadcast once blocks go hypersparse
            // (>= 64 nodes), and the communication-avoiding 3-D variant
            // has the cheaper broadcast phase at the largest machine —
            // each on at least one of the two RMAT scales. (3-D does not
            // win the *total* there since 2-D lost its per-stage
            // overhead: `--mxm-grid 3d` is a study variant.)
            if at("summa2d", 64) < at("single", 64) && at("summa2d", 256) < at("single", 256) {
                multistage_wins = true;
            }
            let bcast = |name: &str| {
                let at_256 = series(name).points.iter().find(|p| p.x == 256).unwrap();
                at_256.report.phase(gblas_dist::ops::mxm::PHASE_BCAST)
            };
            if bcast("summa3d") < bcast("summa2d") {
                threed_broadcasts_less = true;
            }
            // Sanity: every series priced real work at every point.
            for s in &fig.series {
                assert_eq!(s.points.len(), SPGEMM_NODES.len());
                for p in &s.points {
                    assert!(p.report.total() > 0.0, "{}: empty report at {}", s.name, p.x);
                }
            }
        }
        assert!(multistage_wins, "multi-stage never beat single-stage at >=64 nodes");
        assert!(threed_broadcasts_less, "3-D never broadcast less than 2-D at 256 nodes");
    }

    #[test]
    fn fig10_colocation_degrades() {
        let figs = fig10(1);
        let fig = &figs[0];
        for s in &fig.series {
            let first = s.points.first().unwrap().report.total();
            let last = s.points.last().unwrap().report.total();
            assert!(last > 2.0 * first, "{}: {first} -> {last}", s.name);
        }
    }
}
