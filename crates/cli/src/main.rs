//! `gblas-cli` — graph analytics from the command line.
//!
//! ```text
//! gblas-cli <command> [--input FILE.mtx | --gen er:N:D | --gen rmat:SCALE:EF]
//!           [--source V] [--threads T] [--symmetrize] [--seed S]
//!           [--simulate NODES] [--trace FILE] [--mxm-grid 2d|3d]
//!           [--spmspv-merge sort|bucket] [--selection auto|push|pull]
//!
//! commands:
//!   info        matrix shape, nnz, degree statistics
//!   bfs         breadth-first search from --source (default 0)
//!   sssp        single-source shortest paths from --source
//!   pagerank    PageRank (top 10 printed)
//!   ppr         personalized PageRank restarting at --source (default 0; top 10 printed)
//!   cc          connected components (requires symmetric input; use --symmetrize)
//!   triangles   triangle count (requires symmetric input; use --symmetrize)
//!   kcore       k-core decomposition (requires symmetric input; use --symmetrize)
//!   mis         maximal independent set, seeded by --seed (requires symmetric input)
//!   bc          betweenness centrality from --source (or all if --source omitted and n <= 2000)
//!   mcl         Markov clustering via repeated SpGEMM expansion
//!               (requires symmetric input; use --symmetrize)
//!   serve-bench query-serving throughput: batched multi-source BFS vs a
//!               one-query-at-a-time loop over a generated request stream
//!               (--requests N --batch K --window SECONDS
//!               --arrival uniform|poisson|bursty:RATE --verify); simulated
//!               cluster clock with --simulate NODES, wall clock otherwise
//!   trace       summarize a saved JSONL trace (--input trace.jsonl)
//!   profile     analyze a saved JSONL trace (--input trace.jsonl
//!               [--format text|markdown|json]): per-locale busy/comm/idle,
//!               load imbalance, critical path with slack, locale-to-locale
//!               communication matrix, message-size percentiles
//! ```
//!
//! `--spmspv-merge` selects how the frontier algorithms merge SpMSpV
//! results each round: `bucket` (the default: the paper's reference \[9\],
//! private column ranges with no atomics and no sort) or `sort` (Listing 7
//! as written: an atomic SPA and a merge/radix sort). Both give identical
//! output.
//!
//! `--selection` makes `bfs`, `cc` and `sssp` decide a direction per
//! iteration: `auto` switches push/pull from the measured frontier
//! density, `push`/`pull` pin one direction. Without the flag nothing is
//! decided (each runs its native direction). Results are bit-identical
//! either way; each decision shows up in traces as a `select` span with
//! its `dir`.
//!
//! Three environment variables are read, once, by `main`
//! ([`RunConfig::from_env`]): `GBLAS_DIST_EXECUTOR=serial` runs the
//! simulated locales back to back, `GBLAS_SCHED=off` disables the
//! inspector–executor schedule cache, `GBLAS_WORKSPACE=off` disables
//! workspace pooling. None changes a result or a simulated time.
//!
//! Every algorithm is a single generic function over the backend trait,
//! so with `--simulate NODES` **every** analytic (bfs, sssp, pagerank, ppr,
//! cc, triangles, kcore, mis, bc, mcl) also runs — same algorithm text —
//! on the simulated distributed machine and prints where the time would
//! go on the paper's Cray XC30. The matrix-heavy analytics (`triangles`,
//! `mcl`) run the multi-stage DCSC SUMMA, which accepts any rectangular
//! locale grid, so no node count is rounded away; `--mxm-grid 3d` runs
//! their SpGEMMs on the communication-avoiding 3-D grid instead (the
//! node count splits into `auto_layers` replication layers over a
//! smaller base grid). Adding `--trace
//! FILE` records every simulated operation (spans per op/phase/locale)
//! and writes a Chrome trace-event file (load it in `chrome://tracing` /
//! Perfetto), or a JSONL stream if `FILE` ends in `.jsonl`; cumulative
//! metrics are printed either way.

use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::CsrMatrix;
use gblas_core::error::{GblasError, Result};
use gblas_core::ops::selection::{Direction, SelectionPolicy};
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::par::ExecCtx;
use gblas_core::trace::{profile, sink};
use gblas_core::{gen, io};
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, MxmAlgo, ProcGrid, RunConfig};
use gblas_sim::MachineConfig;
use std::io::Write;

const USAGE_COMMANDS: &str =
    "info|bfs|sssp|pagerank|ppr|cc|triangles|kcore|mis|bc|mcl|serve-bench|trace|profile";

/// The option synopsis `--help` prints; the crate docs explain each.
const USAGE_OPTIONS: &str = "[--input FILE.mtx | --gen er:N:D | --gen rmat:SCALE:EF] \
    [--source V] [--threads T] [--symmetrize] [--seed S] [--simulate NODES] [--trace FILE] \
    [--mxm-grid 2d|3d] [--spmspv-merge sort|bucket] [--selection auto|push|pull]";

struct Args {
    command: String,
    input: Option<String>,
    generate: Option<String>,
    /// `--source`, when given: `bfs`, `sssp` and `ppr` default to vertex 0,
    /// `bc` to every vertex.
    source: Option<usize>,
    threads: usize,
    symmetrize: bool,
    seed: u64,
    simulate: Option<usize>,
    trace_out: Option<String>,
    merge: MergeStrategy,
    selection: Option<SelectionPolicy>,
    format: String,
    requests: usize,
    batch: usize,
    window: f64,
    arrival: String,
    verify: bool,
    /// The environment's run configuration ([`RunConfig::from_env`]).
    config: RunConfig,
    mxm_grid: String,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (try --help)")?;
    let mut args = Args {
        command,
        input: None,
        generate: None,
        source: None,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        symmetrize: false,
        seed: 1,
        simulate: None,
        trace_out: None,
        merge: MergeStrategy::default(),
        selection: None,
        format: "text".to_string(),
        requests: 64,
        batch: 8,
        window: 0.005,
        arrival: "poisson:2000".to_string(),
        verify: false,
        config: RunConfig::from_env(),
        mxm_grid: "2d".to_string(),
    };
    let mut rest: Vec<String> = argv.collect();
    let mut i = 0;
    while i < rest.len() {
        let need = |i: usize, rest: &mut Vec<String>| -> std::result::Result<String, String> {
            rest.get(i + 1).cloned().ok_or_else(|| format!("{} needs a value", rest[i]))
        };
        match rest[i].as_str() {
            "--input" => {
                args.input = Some(need(i, &mut rest)?);
                i += 2;
            }
            "--gen" => {
                args.generate = Some(need(i, &mut rest)?);
                i += 2;
            }
            "--source" => {
                args.source = Some(need(i, &mut rest)?.parse().map_err(|_| "bad --source")?);
                i += 2;
            }
            "--threads" => {
                args.threads = need(i, &mut rest)?.parse().map_err(|_| "bad --threads")?;
                i += 2;
            }
            "--seed" => {
                args.seed = need(i, &mut rest)?.parse().map_err(|_| "bad --seed")?;
                i += 2;
            }
            "--simulate" => {
                let nodes = need(i, &mut rest)?.parse().map_err(|_| "bad --simulate")?;
                if nodes == 0 {
                    return Err("--simulate must be at least 1".into());
                }
                args.simulate = Some(nodes);
                i += 2;
            }
            "--trace" => {
                args.trace_out = Some(need(i, &mut rest)?);
                i += 2;
            }
            "--format" => {
                let v = need(i, &mut rest)?;
                if !matches!(v.as_str(), "text" | "markdown" | "json") {
                    return Err(format!("bad --format '{v}' (text|markdown|json)"));
                }
                args.format = v;
                i += 2;
            }
            "--spmspv-merge" => {
                let v = need(i, &mut rest)?;
                args.merge = MergeStrategy::parse(&v)
                    .ok_or_else(|| format!("bad --spmspv-merge '{v}' (sort|bucket)"))?;
                i += 2;
            }
            "--selection" => {
                let v = need(i, &mut rest)?;
                args.selection = Some(
                    SelectionPolicy::parse(&v)
                        .ok_or_else(|| format!("bad --selection '{v}' (auto|push|pull)"))?,
                );
                i += 2;
            }
            "--requests" => {
                args.requests = need(i, &mut rest)?.parse().map_err(|_| "bad --requests")?;
                i += 2;
            }
            "--batch" => {
                args.batch = need(i, &mut rest)?.parse().map_err(|_| "bad --batch")?;
                i += 2;
            }
            "--window" => {
                args.window = need(i, &mut rest)?.parse().map_err(|_| "bad --window")?;
                if !(args.window.is_finite() && args.window >= 0.0) {
                    return Err("bad --window (seconds, finite and >= 0)".into());
                }
                i += 2;
            }
            "--arrival" => {
                args.arrival = need(i, &mut rest)?;
                i += 2;
            }
            "--verify" => {
                args.verify = true;
                i += 1;
            }
            "--mxm-grid" => {
                let v = need(i, &mut rest)?;
                if !matches!(v.as_str(), "2d" | "3d") {
                    return Err(format!("bad --mxm-grid '{v}' (2d|3d)"));
                }
                args.mxm_grid = v;
                i += 2;
            }
            "--symmetrize" => {
                args.symmetrize = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn load(args: &Args) -> Result<CsrMatrix<f64>> {
    let mut a = if let Some(path) = &args.input {
        io::read_matrix_market_file(std::path::Path::new(path))?
    } else if let Some(spec) = &args.generate {
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["er", n, d] => {
                let n: usize = n.parse().map_err(|_| bad_spec(spec))?;
                let d: usize = d.parse().map_err(|_| bad_spec(spec))?;
                // colidx and values, n·d entries each
                check_gen_size(spec, n, n.checked_mul(d), size_of::<(usize, f64)>())?;
                gen::erdos_renyi(n, d, args.seed)
            }
            ["rmat", scale, ef] => {
                let scale: u32 = scale.parse().map_err(|_| bad_spec(spec))?;
                let ef: usize = ef.parse().map_err(|_| bad_spec(spec))?;
                let Some(edges) = gen::rmat_edges(scale, ef) else {
                    return Err(GblasError::InvalidArgument(format!(
                        "--gen {spec}: 2^SCALE * EF edges do not fit usize"
                    )));
                };
                // one triplet per edge before the build
                check_gen_size(spec, 1 << scale, Some(edges), size_of::<(usize, usize, f64)>())?;
                gen::rmat(scale, ef, args.seed)
            }
            _ => return Err(bad_spec(spec)),
        }
    } else {
        return Err(GblasError::InvalidArgument(
            "provide --input FILE.mtx or --gen er:N:D | rmat:SCALE:EF".into(),
        ));
    };
    if args.symmetrize {
        let mut coo = gblas_core::container::CooMatrix::new(a.nrows(), a.ncols());
        for (i, j, &v) in a.iter() {
            if i != j {
                coo.push(i, j, v)?;
                coo.push(j, i, v)?;
            }
        }
        a = coo.to_csr_with(gblas_core::container::DupPolicy::KeepLast, |x, _| x)?;
    }
    Ok(a)
}

/// A `--gen` size is outside input, like a Matrix Market header: the
/// generator's `rowptr` for `n` vertices plus `entries` of `entry_bytes`
/// each must fit `usize` and be reservable, so a size the process cannot
/// back is an error instead of a `capacity overflow` panic or an aborting
/// allocation. The probe reservation is freed at once.
fn check_gen_size(spec: &str, n: usize, entries: Option<usize>, entry_bytes: usize) -> Result<()> {
    let total = || {
        let rowptr = n.checked_add(1)?.checked_mul(size_of::<usize>())?;
        entries?.checked_mul(entry_bytes)?.checked_add(rowptr)
    };
    let too_big = || GblasError::InvalidArgument(format!("--gen {spec}: too large to allocate"));
    let bytes = total().ok_or_else(too_big)?;
    Vec::<u8>::new().try_reserve_exact(bytes).map_err(|_| too_big())
}

fn bad_spec(spec: &str) -> GblasError {
    GblasError::InvalidArgument(format!("bad --gen spec '{spec}' (er:N:D or rmat:SCALE:EF)"))
}

/// Build the simulated cluster, with trace capture on when `--trace` was
/// given.
fn sim_ctx(nodes: usize, args: &Args) -> DistCtx {
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(nodes, 24)).with_config(args.config);
    if args.trace_out.is_some() {
        dctx.enable_tracing();
    }
    dctx
}

/// After a simulated run: write the trace file (Chrome JSON, or JSONL when
/// the path ends in `.jsonl`) and dump the metrics registry.
fn finish_sim(dctx: &DistCtx, args: &Args, out: &mut impl Write) -> CliResult<()> {
    let Some(path) = &args.trace_out else { return Ok(()) };
    let trace = dctx.recorder().snapshot();
    let text =
        if path.ends_with(".jsonl") { sink::jsonl(&trace) } else { sink::chrome_trace(&trace) };
    std::fs::write(path, text)
        .map_err(|e| GblasError::InvalidArgument(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "trace: {} spans, {} events, {:.6}s simulated -> {path}",
        trace.spans.len(),
        trace.instants.len(),
        trace.sim_end()
    )?;
    writeln!(out, "metrics:")?;
    write!(out, "{}", dctx.metrics().snapshot())?;
    Ok(())
}

/// `trace` subcommand: reload a JSONL trace and print the summary table.
fn summarize_trace(args: &Args, out: &mut impl Write) -> CliResult<()> {
    let path = args.input.as_ref().ok_or_else(|| {
        GblasError::InvalidArgument("trace needs --input FILE.jsonl (a saved JSONL trace)".into())
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| GblasError::InvalidArgument(format!("cannot read {path}: {e}")))?;
    if text.trim_start().starts_with('[') {
        return Err(GblasError::InvalidArgument(
            "this looks like a Chrome trace; the trace subcommand reads the JSONL format \
             (--trace FILE.jsonl)"
                .into(),
        )
        .into());
    }
    let trace = sink::from_jsonl(&text).map_err(GblasError::InvalidArgument)?;
    write!(out, "{}", sink::summary(&trace))?;
    Ok(())
}

/// `profile` subcommand: reload a JSONL trace and print the full
/// analysis — per-locale breakdown, load imbalance, critical path, comm
/// matrix, and histograms — in the requested format.
fn profile_trace(args: &Args, out: &mut impl Write) -> CliResult<()> {
    let path = args.input.as_ref().ok_or_else(|| {
        GblasError::InvalidArgument("profile needs --input FILE.jsonl (a saved JSONL trace)".into())
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| GblasError::InvalidArgument(format!("cannot read {path}: {e}")))?;
    if text.trim_start().starts_with('[') {
        return Err(GblasError::InvalidArgument(
            "this looks like a Chrome trace; the profile subcommand reads the JSONL format \
             (--trace FILE.jsonl)"
                .into(),
        )
        .into());
    }
    let trace = sink::from_jsonl(&text).map_err(GblasError::InvalidArgument)?;
    let p = profile::profile(&trace);
    match args.format.as_str() {
        "markdown" => write!(out, "{}", profile::render_markdown(&p))?,
        "json" => writeln!(out, "{}", profile::render_json(&p))?,
        _ => write!(out, "{}", profile::render_text(&p))?,
    }
    Ok(())
}

fn degree_stats(a: &CsrMatrix<f64>) -> (usize, usize, f64) {
    let mut min = usize::MAX;
    let mut max = 0usize;
    for i in 0..a.nrows() {
        let d = a.row_nnz(i);
        min = min.min(d);
        max = max.max(d);
    }
    (min.min(max), max, a.nnz() as f64 / a.nrows().max(1) as f64)
}

/// Format the top-scoring vertices of a dense score vector.
fn top_vertices(scores: &[f64], k: usize, fmt: impl Fn(f64) -> String) -> String {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // total_cmp: a NaN score (degenerate input) must not panic the CLI
    order.sort_by(|&x, &y| scores[y].total_cmp(&scores[x]));
    let mut out = String::new();
    for (rank, &v) in order.iter().take(k).enumerate() {
        out.push_str(&format!("\n  #{:<2} vertex {:>8}  score {}", rank + 1, v, fmt(scores[v])));
    }
    out
}

/// Run-length summary of the per-iteration direction choices, e.g.
/// `" [directions: push x2, pull x3, push]"`; empty for a static run,
/// which decides nothing.
fn dir_summary(decisions: &[Direction]) -> String {
    if decisions.is_empty() {
        return String::new();
    }
    let mut runs: Vec<(Direction, usize)> = Vec::new();
    for &d in decisions {
        match runs.last_mut() {
            Some((dir, count)) if *dir == d => *count += 1,
            _ => runs.push((d, 1)),
        }
    }
    let body: Vec<String> =
        runs.iter()
            .map(|(dir, count)| {
                if *count == 1 {
                    dir.name().to_string()
                } else {
                    format!("{} x{count}", dir.name())
                }
            })
            .collect();
    format!(" [directions: {}]", body.join(", "))
}

/// The bc source set: `--source` when given, else every vertex (vertex 0
/// alone on big graphs).
fn bc_sources(args: &Args, n: usize) -> Vec<usize> {
    match args.source {
        Some(source) => vec![source],
        None if n > 2000 => vec![0],
        None => (0..n).collect(),
    }
}

/// Run one analytic on any backend and summarize the result.
///
/// This is the whole dispatch: the shared-memory run and the `--simulate`
/// run call the identical function with a different `B`, which is the
/// point of the backend trait — one algorithm text, two substrates.
fn run_algo<B: GblasBackend>(backend: &B, a: &B::Matrix<f64>, args: &Args) -> Result<String> {
    let opts = SpMSpVOpts::with_merge(args.merge);
    let source = args.source.unwrap_or(0);
    Ok(match args.command.as_str() {
        "bfs" => {
            let runs = gblas_graph::bfs_on(backend, a, &[source], args.selection, opts)?;
            let (r, decisions) = &runs[0];
            let dirs = dir_summary(decisions);
            format!(
                "bfs from {source}: reached {} vertices, max level {}{dirs}",
                r.reached(),
                r.levels.as_slice().iter().max().unwrap_or(&0)
            )
        }
        "sssp" => {
            let runs = gblas_graph::sssp_on(backend, a, &[source], args.selection, opts)?;
            let (dist, decisions) = &runs[0];
            let dirs = dir_summary(decisions);
            let reached = dist.as_slice().iter().filter(|d| d.is_finite()).count();
            let furthest =
                dist.as_slice().iter().filter(|d| d.is_finite()).cloned().fold(0.0, f64::max);
            format!("sssp from {source}: {reached} reachable, max distance {furthest:.4}{dirs}")
        }
        "pagerank" => {
            let (pr, iters) =
                gblas_graph::pagerank_on(backend, a, gblas_graph::PageRankOptions::default())?;
            format!(
                "pagerank converged in {iters} iterations{}",
                top_vertices(pr.as_slice(), 10, |s| format!("{s:.6e}"))
            )
        }
        "ppr" => {
            let opts = gblas_graph::PprOptions::default();
            let r = gblas_graph::ppr_multi_on(backend, a, &[source], opts)?;
            format!(
                "ppr from {source} converged in {} iterations{}",
                r.iterations[0],
                top_vertices(r.scores[0].as_slice(), 10, |s| format!("{s:.6e}"))
            )
        }
        "cc" => {
            let (labels, decisions) =
                gblas_graph::connected_components_on(backend, a, args.selection, opts)?;
            let dirs = dir_summary(&decisions);
            format!("{} connected components{dirs}", gblas_graph::cc::component_count(&labels))
        }
        "triangles" => {
            let t = gblas_graph::triangle_count_on(backend, a)?;
            format!("{t} triangles")
        }
        "kcore" => {
            let core = gblas_graph::core_numbers_on(backend, a)?;
            let kmax = core.as_slice().iter().max().copied().unwrap_or(0);
            let in_kmax = core.as_slice().iter().filter(|&&c| c == kmax).count();
            format!("degeneracy {kmax} ({in_kmax} vertices in the {kmax}-core)")
        }
        "mis" => {
            let set = gblas_graph::maximal_independent_set_on(backend, a, args.seed)?;
            let size = set.as_slice().iter().filter(|&&b| b).count();
            format!(
                "maximal independent set: {size} of {} vertices (seed {})",
                set.len(),
                args.seed
            )
        }
        "mcl" => {
            let (labels, iters) =
                gblas_graph::markov_cluster_on(backend, a, gblas_graph::MclOptions::default())?;
            let clusters: std::collections::BTreeSet<usize> = labels.iter().copied().collect();
            format!("mcl: {} clusters in {iters} iterations", clusters.len())
        }
        "bc" => {
            let sources = bc_sources(args, backend.mat_nrows(a));
            let bc = gblas_graph::betweenness_on(backend, a, &sources)?;
            format!(
                "betweenness over {} source(s); top vertices:{}",
                sources.len(),
                top_vertices(bc.as_slice(), 5, |s| format!("{s:.4}"))
            )
        }
        other => {
            return Err(GblasError::InvalidArgument(format!(
                "unknown command '{other}' ({USAGE_COMMANDS})"
            )));
        }
    })
}

/// `serve-bench` subcommand: replay a generated query stream through the
/// batched server and the one-query-at-a-time loop, and report QPS plus
/// tail latency for both. With `--simulate NODES` the service times come
/// from the distributed backend's simulated clock; otherwise from the
/// shared backend's wall clock.
fn serve_bench_cmd(a: &CsrMatrix<f64>, args: &Args, out: &mut impl Write) -> CliResult<()> {
    use gblas_bench::serve;
    let spec = serve::ArrivalSpec::parse(&args.arrival).ok_or_else(|| {
        GblasError::InvalidArgument(format!(
            "bad --arrival '{}' (uniform|poisson|bursty:RATE)",
            args.arrival
        ))
    })?;
    if args.batch == 0 {
        return Err(GblasError::InvalidArgument("--batch must be at least 1".into()).into());
    }
    let requests = serve::generate_requests(args.requests, a.nrows(), spec, args.seed);
    let policy = serve::ServePolicy::batch_window(args.batch, args.window);
    writeln!(
        out,
        "serving {} requests ({}), batch <= {}, window {:.1}ms",
        args.requests,
        args.arrival,
        args.batch,
        args.window * 1e3
    )?;
    let (batched, looped) = if let Some(nodes) = args.simulate {
        let r = serve::serve_bench_dist(a, nodes, &requests, policy)?;
        writeln!(out, "clock: simulated ({} Edison nodes)", ProcGrid::square_for(nodes).locales())?;
        r
    } else {
        let r = serve::serve_bench_shared(a, args.threads, &requests, policy)?;
        writeln!(out, "clock: wall ({} threads)", args.threads)?;
        r
    };
    writeln!(out, "{batched}")?;
    writeln!(out, "{looped}")?;
    writeln!(out, "batched/loop QPS: {:.2}x", batched.qps / looped.qps.max(f64::MIN_POSITIVE))?;
    if args.verify {
        let sources: Vec<usize> = requests.iter().map(|r| r.source).collect();
        serve::verify_batched_equivalence(a, &sources, args.simulate.unwrap_or(4))?;
        writeln!(
            out,
            "verified: batched results bit-identical to single-source runs \
             ({} queries, both backends)",
            sources.len()
        )?;
    }
    Ok(())
}

/// Pick the locale grid for `--simulate`: the most square `pr x pc`
/// factorization of the node count. The multi-stage SUMMA accepts any
/// rectangular grid, so the matrix analytics (`triangles`, `mcl`) no
/// longer round the node count down to a perfect square.
fn sim_grid(nodes: usize) -> ProcGrid {
    ProcGrid::square_for(nodes)
}

/// The per-command communication strategy for the sparse-vector kernels
/// (the paper's fine-grained Listing 8 for BFS, aggregated for the rest).
fn sim_strategy(command: &str) -> CommStrategy {
    if command == "bfs" {
        CommStrategy::Fine
    } else {
        CommStrategy::Bulk
    }
}

fn run(out: &mut impl Write) -> CliResult<()> {
    let args = match parse_args() {
        Ok(a) if matches!(a.command.as_str(), "--help" | "-h") => {
            writeln!(out, "usage: gblas-cli <{USAGE_COMMANDS}> {USAGE_OPTIONS}")?;
            return Ok(());
        }
        Ok(a) => a,
        Err(e) => {
            if e.contains("missing command") {
                eprintln!("usage: gblas-cli <{USAGE_COMMANDS}> {USAGE_OPTIONS}");
            }
            return Err(GblasError::InvalidArgument(e).into());
        }
    };
    if args.command == "trace" {
        return summarize_trace(&args, out);
    }
    if args.command == "profile" {
        return profile_trace(&args, out);
    }
    let mut a = load(&args)?;
    if args.command == "mcl" {
        // MCL's flow interpretation needs self-loops; add them once on
        // the global matrix so both backends see the identical input.
        a = gblas_graph::mcl::add_self_loops(&a)?;
    }
    gblas_bench::configure(args.config);
    let ctx = ExecCtx::with_threads(args.threads);
    ctx.workspace().set_enabled(args.config.workspace);
    writeln!(
        out,
        "matrix: {}x{}, {} stored entries{}",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        if args.symmetrize { " (symmetrized)" } else { "" }
    )?;

    if args.command == "info" {
        let (dmin, dmax, davg) = degree_stats(&a);
        writeln!(out, "out-degree: min {dmin}, max {dmax}, mean {davg:.2}")?;
        return Ok(());
    }

    if args.command == "serve-bench" {
        return serve_bench_cmd(&a, &args, out);
    }

    let t0 = std::time::Instant::now();
    let summary = run_algo(&SharedBackend::new(&ctx), &a, &args)?;
    writeln!(out, "{summary} ({:.2?})", t0.elapsed())?;

    if let Some(nodes) = args.simulate {
        // The 3-D variant deals the SUMMA stages across `layers`
        // replication layers: the machine keeps every node, but the
        // operand grid shrinks to nodes/layers locales.
        let (grid, algo) = if args.mxm_grid == "3d" {
            let layers = gblas_dist::auto_layers(nodes).max(1);
            let grid = sim_grid(nodes / layers.max(1));
            (grid, MxmAlgo::Summa3d { layers })
        } else {
            (sim_grid(nodes), MxmAlgo::Summa2d)
        };
        let nodes = match algo {
            MxmAlgo::Summa3d { layers } => grid.locales() * layers,
            _ => grid.locales(),
        };
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = sim_ctx(nodes, &args);
        let backend = DistBackend::with_strategy(&dctx, sim_strategy(&args.command)).with_mxm(algo);
        let dist_summary = run_algo(&backend, &da, &args)?;
        let report = backend.take_report();
        if dist_summary != summary {
            writeln!(out, "(distributed result) {dist_summary}")?;
        }
        writeln!(out, "simulated on {nodes} Edison nodes: {report}")?;
        let attributions = report.attributions();
        if !attributions.is_empty() {
            let list: Vec<String> =
                attributions.iter().map(|(phase, l)| format!("{phase}=L{l}")).collect();
            writeln!(out, "slowest locale per phase: {}", list.join(" "))?;
        }
        finish_sim(&dctx, &args, out)?;
    }
    if args.trace_out.is_some() && args.simulate.is_none() {
        eprintln!("note: --trace records the simulated run; add --simulate NODES");
    }
    Ok(())
}

/// Why a run stops early: the library refused, or standard output did.
enum Failure {
    Lib(GblasError),
    Io(std::io::Error),
}

impl From<GblasError> for Failure {
    fn from(e: GblasError) -> Self {
        Failure::Lib(e)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Io(e)
    }
}

type CliResult<T> = std::result::Result<T, Failure>;

fn main() {
    let mut out = std::io::stdout().lock();
    let code = match run(&mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => 0,
        // A reader that closed the pipe early (`| head`) has all it wanted.
        Err(Failure::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(Failure::Io(e)) => {
            eprintln!("error: writing output: {e}");
            1
        }
        Err(Failure::Lib(e)) => {
            eprintln!("error: {e}");
            1
        }
    };
    drop(out);
    std::process::exit(code);
}
