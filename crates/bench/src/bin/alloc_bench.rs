//! Allocation-accounting harness for the iterative kernels.
//!
//! Installs a counting global allocator (behind the `bench` feature) and
//! measures, per iteration of each workload, (a) raw allocator traffic
//! (malloc calls + bytes requested) and (b) workspace-pool behaviour
//! (checkout hits vs misses), with pooling on and off
//! (`WorkspacePool::set_enabled`).
//!
//! Workloads mirror the iteration structure of the real algorithms:
//!
//! - **bfs**: the `bfs_on` level loop itself, sampled through its observer
//!   — one masked first-visitor SpMSpV per level; an iteration is one level.
//! - **pagerank**: the `pagerank_on` power loop itself, sampled through
//!   its per-iteration observer — one pattern-only SpMV plus the fused
//!   dense pass; an iteration is one power step.
//! - **spmspv**: repeated `spmspv_semiring` calls with a fixed operand —
//!   the steady-state inner kernel on its own.
//! - **mxm**: repeated multi-stage SUMMA SpGEMM (`A·A` on a 2×2 grid) —
//!   the MCL expansion workload; per-stage receive slices and the dense
//!   SPA accumulator check out of the locale workspace pools, so the
//!   steady state must be pool-miss free just like the vector kernels.
//!
//! Each workload runs one untimed warm-up pass first so the pool shelves
//! reach their steady working set; the measured pass then samples every
//! iteration. "Steady" rows skip the first [`WARMUP_ITERS`] measured
//! iterations. Results are written as JSON (default `BENCH_alloc.json`).
//!
//! `--check` runs at a reduced scale and exits nonzero if the pooled BFS
//! steady state performs any pool-miss checkouts — the CI gate for
//! "zero-allocation hot paths".
//!
//! A `sched` section records the inspector–executor schedule cache's
//! behaviour on the simulated cluster (one distributed BFS and one
//! PageRank run on a 2×2 grid): plan builds, replays and invalidations
//! from the metrics registry. `regress` gates these one-sidedly — builds
//! must not grow (a kernel falling off the schedule path re-inspects
//! every iteration) and replays must not collapse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gblas_bench::workloads;
use gblas_core::algebra::semirings;
use gblas_core::backend::SharedBackend;
use gblas_core::container::{CsrMatrix, SparseVec};
use gblas_core::ops::spmspv::{spmspv_semiring, SpMSpVOpts};
use gblas_core::par::ExecCtx;
use gblas_core::workspace::WorkspaceStats;
use gblas_dist::RunConfig;
use gblas_graph::bfs::bfs_observed;
use gblas_graph::pagerank::{pagerank_observed, PageRankOptions};

/// Counting allocator: forwards to [`System`], tallying every allocation.
/// A `realloc` that grows a block counts as one allocation of its growth
/// (`new_size - old_size` bytes); one that shrinks it (`shrink_to_fit`) or
/// keeps its size requests nothing new and counts as none.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counters are monotonic
// side-channels and never influence allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size());
        if growth > 0 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(growth as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measured iterations skipped before the "steady" aggregate.
const WARMUP_ITERS: usize = 2;

/// Per-iteration deltas: allocator traffic plus pool checkouts.
#[derive(Debug, Clone, Copy, Default)]
struct IterSample {
    allocs: u64,
    bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Rolling snapshot used to turn cumulative counters into deltas.
struct Probe {
    allocs: u64,
    bytes: u64,
    ws: WorkspaceStats,
}

impl Probe {
    fn start(ctx: &ExecCtx) -> Self {
        Probe {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            ws: ctx.workspace().stats(),
        }
    }

    /// Delta since the previous call (or since `start`).
    fn sample(&mut self, ctx: &ExecCtx) -> IterSample {
        let allocs = ALLOCS.load(Ordering::Relaxed);
        let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
        let ws = ctx.workspace().stats();
        let d = ws.saturating_sub(&self.ws);
        let out = IterSample {
            allocs: allocs - self.allocs,
            bytes: bytes - self.bytes,
            pool_hits: d.pool_hits,
            pool_misses: d.pool_misses,
        };
        self.allocs = allocs;
        self.bytes = bytes;
        self.ws = ws;
        out
    }
}

/// One workload × one pooling mode.
struct RunStats {
    iterations: usize,
    wall_ms: f64,
    samples: Vec<IterSample>,
}

impl RunStats {
    fn steady(&self) -> &[IterSample] {
        if self.samples.len() > WARMUP_ITERS {
            &self.samples[WARMUP_ITERS..]
        } else {
            &self.samples
        }
    }

    fn steady_mean(&self, f: impl Fn(&IterSample) -> u64) -> f64 {
        let s = self.steady();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().map(&f).sum::<u64>() as f64 / s.len() as f64
    }

    fn steady_misses_total(&self) -> u64 {
        self.steady().iter().map(|s| s.pool_misses).sum()
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"iterations\": {}, \"wall_ms\": {:.2}, \"steady\": ",
                "{{\"allocs_per_iter\": {:.1}, \"bytes_per_iter\": {:.1}, ",
                "\"pool_hits_per_iter\": {:.1}, \"pool_misses_per_iter\": {:.1}}}, ",
                "\"total\": {{\"allocs\": {}, \"bytes\": {}}}}}"
            ),
            self.iterations,
            self.wall_ms,
            self.steady_mean(|s| s.allocs),
            self.steady_mean(|s| s.bytes),
            self.steady_mean(|s| s.pool_hits),
            self.steady_mean(|s| s.pool_misses),
            self.samples.iter().map(|s| s.allocs).sum::<u64>(),
            self.samples.iter().map(|s| s.bytes).sum::<u64>(),
        )
    }
}

/// The library's own BFS level loop (`bfs_observed`, static push),
/// sampled after every level.
fn bfs_levels(
    a: &CsrMatrix<f64>,
    source: usize,
    ctx: &ExecCtx,
    probe: Option<&mut Probe>,
) -> Vec<IterSample> {
    let mut samples = Vec::new();
    let mut probe = probe;
    let each = |_level| {
        if let Some(p) = probe.as_deref_mut() {
            samples.push(p.sample(ctx));
        }
    };
    bfs_observed(&SharedBackend::new(ctx), a, &[source], None, SpMSpVOpts::default(), each)
        .expect("bfs");
    samples
}

fn run_bfs(a: &CsrMatrix<f64>, ctx: &ExecCtx, pooled: bool) -> RunStats {
    ctx.workspace().set_enabled(pooled);
    bfs_levels(a, 0, ctx, None); // warm the shelves at full frontier width
    let mut probe = Probe::start(ctx);
    let t0 = Instant::now();
    let samples = bfs_levels(a, 0, ctx, Some(&mut probe));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    RunStats { iterations: samples.len(), wall_ms, samples }
}

/// The library's own PageRank power loop (`pagerank_observed`), held to
/// exactly `iters` steps by a tolerance no change can fall below; the
/// set-up runs before sampling starts.
fn pagerank_iters(
    a: &CsrMatrix<f64>,
    iters: usize,
    ctx: &ExecCtx,
    probe: Option<&mut Probe>,
) -> Vec<IterSample> {
    let opts = PageRankOptions { tolerance: 0.0, max_iterations: iters, ..Default::default() };
    let mut samples = Vec::new();
    let mut probe = probe;
    let each = |iter| {
        if let Some(p) = probe.as_deref_mut() {
            let sample = p.sample(ctx);
            if iter > 0 {
                samples.push(sample);
            }
        }
    };
    pagerank_observed(&SharedBackend::new(ctx), a, opts, each).expect("pagerank");
    samples
}

fn run_pagerank(a: &CsrMatrix<f64>, iters: usize, ctx: &ExecCtx, pooled: bool) -> RunStats {
    ctx.workspace().set_enabled(pooled);
    pagerank_iters(a, 2, ctx, None);
    let mut probe = Probe::start(ctx);
    let t0 = Instant::now();
    let samples = pagerank_iters(a, iters, ctx, Some(&mut probe));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    RunStats { iterations: samples.len(), wall_ms, samples }
}

fn run_spmspv(
    a: &CsrMatrix<f64>,
    x: &SparseVec<f64>,
    iters: usize,
    ctx: &ExecCtx,
    pooled: bool,
) -> RunStats {
    ctx.workspace().set_enabled(pooled);
    let ring = semirings::plus_times_f64();
    for _ in 0..2 {
        let _: SparseVec<f64> = spmspv_semiring(a, x, &ring, ctx).unwrap();
    }
    let mut probe = Probe::start(ctx);
    let t0 = Instant::now();
    let mut samples = Vec::new();
    for _ in 0..iters {
        let _: SparseVec<f64> = spmspv_semiring(a, x, &ring, ctx).unwrap();
        samples.push(probe.sample(ctx));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    RunStats { iterations: samples.len(), wall_ms, samples }
}

/// The SUMMA SpGEMM workload: `A·A` on a simulated 2×2 grid, one
/// distributed multiply per iteration. The local multiply kernels (heap /
/// hash / dense SPA) and the stage slice buffers check out of the
/// per-locale workspace pools, so pooled steady state should allocate
/// nothing per stage beyond the result assembly.
fn run_mxm(a: &CsrMatrix<f64>, iters: usize, pooled: bool, config: RunConfig) -> RunStats {
    use gblas_dist::{DistCsrMatrix, DistCtx, ProcGrid};
    use gblas_sim::MachineConfig;

    let grid = ProcGrid::new(2, 2);
    let config = RunConfig { workspace: pooled, ..config };
    let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24)).with_config(config);
    let da = DistCsrMatrix::from_global(a, grid);
    let ring = semirings::plus_times_f64();
    for _ in 0..2 {
        let _ = gblas_dist::ops::mxm::mxm_dist(&da, &da, &ring, &dctx).expect("warm-up mxm");
    }
    let mut allocs = ALLOCS.load(Ordering::Relaxed);
    let mut bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    let mut ws = dctx.workspace_stats();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    for _ in 0..iters {
        let _ = gblas_dist::ops::mxm::mxm_dist(&da, &da, &ring, &dctx).expect("measured mxm");
        let (na, nb, nw) = (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
            dctx.workspace_stats(),
        );
        let d = nw.saturating_sub(&ws);
        samples.push(IterSample {
            allocs: na - allocs,
            bytes: nb - bytes,
            pool_hits: d.pool_hits,
            pool_misses: d.pool_misses,
        });
        allocs = na;
        bytes = nb;
        ws = nw;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    RunStats { iterations: samples.len(), wall_ms, samples }
}

/// Schedule-cache accounting for one distributed algorithm run:
/// `(iterations, builds, replays, invalidations)` plus the JSON row.
fn sched_workload(name: &str, a: &CsrMatrix<f64>, config: RunConfig) -> String {
    use gblas_dist::ops::spmspv::CommStrategy;
    use gblas_dist::{DistCsrMatrix, DistCtx, ProcGrid};
    use gblas_sim::MachineConfig;

    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(a, grid);
    let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24)).with_config(config);
    let iterations = match name {
        "bfs" => {
            let (r, _) = gblas_graph::bfs_dist_with(
                &da,
                0,
                CommStrategy::Bulk,
                SpMSpVOpts::default(),
                &dctx,
            )
            .expect("dist bfs");
            *r.levels.as_slice().iter().max().unwrap_or(&0) as usize
        }
        _ => {
            let (_, iters, _) =
                gblas_graph::pagerank_dist_on(&da, gblas_graph::PageRankOptions::default(), &dctx)
                    .expect("dist pagerank");
            iters
        }
    };
    let m = dctx.metrics().snapshot();
    eprintln!(
        "  sched/{name}: {} iterations, {} builds, {} replays, {} invalidations",
        iterations, m.sched_builds, m.sched_replays, m.sched_invalidations
    );
    format!(
        "    {{\"name\": \"{name}\", \"iterations\": {iterations}, \"builds\": {}, \
         \"replays\": {}, \"invalidations\": {}}}",
        m.sched_builds, m.sched_replays, m.sched_invalidations
    )
}

fn main() {
    let config = RunConfig::from_env();
    let mut check = false;
    let mut out_path = String::from("BENCH_alloc.json");
    let mut n = 20_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check = true;
                n = 2_000;
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--n" => n = args.next().expect("--n needs a value").parse().expect("--n usize"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let degree = 8;
    let threads = 4;
    let pr_iters = 10;
    let spmspv_iters = 10;
    let mxm_iters = 8;
    let ctx = ExecCtx::new(threads, 2);
    let a = workloads::er_matrix(n, degree, 7);
    let x = workloads::spmspv_vector(n, 10, 11);

    eprintln!("alloc_bench: n={n} degree={degree} nnz={} threads={threads}", a.nnz());

    // Unpooled first so the pooled run's shelves are not pre-warmed by it
    // (set_enabled(false) drains the shelves anyway, but order makes the
    // wall-clock comparison symmetric: both modes start cold).
    let mut sections = Vec::new();
    for (name, runner) in [("bfs", 0usize), ("pagerank", 1), ("spmspv", 2), ("mxm", 3)] {
        let run = |pooled: bool| match runner {
            0 => run_bfs(&a, &ctx, pooled),
            1 => run_pagerank(&a, pr_iters, &ctx, pooled),
            2 => run_spmspv(&a, &x, spmspv_iters, &ctx, pooled),
            _ => run_mxm(&a, mxm_iters, pooled, config),
        };
        let unpooled = run(false);
        let pooled = run(true);
        eprintln!(
            "  {name:8} pooled: {:7.1} allocs/iter, {:5.1} misses/iter, {:8.2} ms | \
             unpooled: {:7.1} allocs/iter, {:8.2} ms",
            pooled.steady_mean(|s| s.allocs),
            pooled.steady_mean(|s| s.pool_misses),
            pooled.wall_ms,
            unpooled.steady_mean(|s| s.allocs),
            unpooled.wall_ms,
        );
        sections.push((name, pooled, unpooled));
    }

    let body: Vec<String> = sections
        .iter()
        .map(|(name, pooled, unpooled)| {
            format!(
                "    {{\"name\": \"{name}\", \"pooled\": {}, \"unpooled\": {}}}",
                pooled.to_json(),
                unpooled.to_json()
            )
        })
        .collect();
    let sched_body: Vec<String> =
        ["bfs", "pagerank"].iter().map(|name| sched_workload(name, &a, config)).collect();
    let json = format!(
        "{{\n  \"config\": {{\"n\": {n}, \"degree\": {degree}, \"nnz\": {}, \
         \"threads\": {threads}, \"warmup_iters\": {WARMUP_ITERS}}},\n  \"workloads\": [\n{}\n  ],\n  \"sched\": [\n{}\n  ]\n}}\n",
        a.nnz(),
        body.join(",\n"),
        sched_body.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_alloc.json");
    eprintln!("alloc_bench: wrote {out_path}");

    if check {
        let bfs_pooled = &sections[0].1;
        let misses = bfs_pooled.steady_misses_total();
        if misses != 0 {
            eprintln!(
                "alloc_bench --check FAILED: BFS steady state performed {misses} pool-miss \
                 checkouts (expected 0)"
            );
            std::process::exit(1);
        }
        eprintln!("alloc_bench --check OK: BFS steady state is pool-miss free");
    }
}
