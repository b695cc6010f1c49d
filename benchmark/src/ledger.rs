//! The traced run: the per-layer ledger of one workload.
//!
//! The same workload as the untraced run, at one fifth of its measured
//! time, with a span around every call the harness makes into a layer.
//! After each solve the harness replays the solve's kernel calls itself,
//! inside spans, and checks that the replay reproduces the answer; what is
//! left of the solve after the replayed kernels is the driver's own time.
//! Kernel probes, the two-clock pairs, the CLI and the serving path
//! follow. Spans stay in memory until the run ends.

use crate::e2e::{self, guarded, Config, Outcome, SHARED_SHARE, THREADS};
use crate::names::PER_LAYER;
use crate::probes;
use crate::spans::{self, Recorder};
use crate::stats::{fastest, percentile, typical};
use crate::surface::{self as lib, ExecCtx};
use crate::two_clock;
use crate::workloads::{fresh_dist_ctx, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The traced run measures this share of what the untraced run measures.
const TRACED_SHARE: f64 = 0.2;
/// Fewest solves a traced loop makes, however short its window.
const MIN_SOLVES: usize = 3;
/// Solves of each side-run (one thread, pooling off, threaded executor).
const SIDE_SOLVES: usize = 3;
/// `gblas-cli` subprocesses timed for the CLI layer.
const CLI_RUNS: usize = 3;
/// Queries replayed through the serving path.
const SERVE_REQUESTS: usize = 16;

/// Hooks into the traced binary's counting allocator.
#[derive(Debug, Clone, Copy)]
pub struct AllocProbe {
    /// Turn counting on or off (off costs one relaxed load per call).
    pub set_enabled: fn(bool),
    /// `(allocations, bytes)` counted so far.
    pub counts: fn() -> (u64, u64),
}

/// Where the traced run finds its surroundings.
#[derive(Debug, Clone)]
pub struct TraceEnv {
    pub bench_dir: PathBuf,
    pub cli_bin: Option<PathBuf>,
    pub alloc: AllocProbe,
}

/// Per-layer values by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Every catalogue metric, in catalogue order; an error names the
    /// first one that was never set or that is not in the catalogue.
    pub fn into_metrics(self) -> Result<Vec<(&'static str, f64)>, String> {
        if let Some(stray) = self.values.keys().find(|k| !PER_LAYER.iter().any(|m| m.0 == *k)) {
            return Err(format!("{stray} is not a catalogue metric"));
        }
        PER_LAYER
            .iter()
            .map(|m| {
                self.values.get(m.0).map(|&v| (m.0, v)).ok_or(format!("{} was not measured", m.0))
            })
            .collect()
    }
}

/// What the traced shared-memory loop learnt.
struct TracedLoop {
    seconds: Vec<f64>,
    kernel_seconds: f64,
    allocs: u64,
    alloc_bytes: u64,
    tasks: u64,
    regions: u64,
    iterations: usize,
    failed: u64,
}

/// Solve, check, replay — each solve and each replay in a span of its
/// own, the replay's kernel calls in spans beneath it.
fn traced_loop<W: Workload>(
    w: &W,
    ctx: &ExecCtx,
    window: f64,
    alloc: AllocProbe,
    rec: &mut Recorder,
) -> Result<TracedLoop, String> {
    let mut out = TracedLoop {
        seconds: Vec::new(),
        kernel_seconds: 0.0,
        allocs: 0,
        alloc_bytes: 0,
        tasks: 0,
        regions: 0,
        iterations: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_SOLVES || start.elapsed().as_secs_f64() < window {
        rec.set_solve(i as u32 + 1);
        lib::take_counters(ctx);
        let before = (alloc.counts)();
        let (answer, s) = rec.timed("graph.solve", || guarded(|| w.solve(i, ctx)));
        let after = (alloc.counts)();
        let work = lib::take_counters(ctx);
        out.seconds.push(s);
        out.allocs += after.0 - before.0;
        out.alloc_bytes += after.1 - before.1;
        out.tasks += work.tasks;
        out.regions += work.regions;
        match answer {
            Ok(answer) => {
                out.iterations = w.iterations(&answer);
                if !w.check(i, &answer) {
                    out.failed += 1;
                }
                let first_child = rec.spans().len() + 1;
                let (same, _) = rec.scope("graph.replay", |r| w.replay(i, &answer, ctx, r));
                if !same? {
                    out.failed += 1;
                }
                // The replay's direct children are the kernel calls.
                let replay = first_child - 1;
                out.kernel_seconds += rec.spans()[first_child..]
                    .iter()
                    .filter(|k| k.parent == Some(replay))
                    .map(spans::Span::seconds)
                    .sum::<f64>();
            }
            Err(_) => out.failed += 1,
        }
        i += 1;
    }
    rec.set_solve(0);
    Ok(out)
}

/// Fastest wall seconds of `SIDE_SOLVES` shared-memory solves of the
/// first input under `ctx`.
fn side_solves<W: Workload>(w: &W, ctx: &ExecCtx, rec: &mut Recorder) -> Result<f64, String> {
    let mut seconds = Vec::with_capacity(SIDE_SOLVES);
    for _ in 0..SIDE_SOLVES {
        let (answer, s) = rec.timed("graph.solve", || w.solve(0, ctx));
        answer?;
        seconds.push(s);
    }
    Ok(fastest(&seconds))
}

/// The distributed leg: traced solves on fresh serial clusters, then the
/// same solve under the threaded executor and under the library's own
/// trace recorder (for the superstep count).
fn dist_leg<W: Workload>(
    w: &W,
    window: f64,
    shared_p50: f64,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(u64, u64), String> {
    let (mut seconds, mut failed) = (Vec::new(), 0u64);
    let (mut sim_total, mut msgs, mut bytes, mut builds, mut replays) = (0.0, 0, 0, 0, 0);
    let mut phases: BTreeMap<String, f64> = BTreeMap::new();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_SOLVES || start.elapsed().as_secs_f64() < window {
        let dctx = fresh_dist_ctx::<W>();
        let (answer, s) = rec.timed("dist.solve", || guarded(|| w.solve_dist(i, &dctx)));
        seconds.push(s);
        match answer {
            Ok((_, report)) => {
                sim_total += lib::sim_total(&report);
                for (name, t) in lib::sim_phases(&report) {
                    *phases.entry(name).or_insert(0.0) += t;
                }
            }
            Err(_) => failed += 1,
        }
        let (m, b) = lib::comm_totals(&dctx);
        let (built, replayed) = lib::sched_counts(&dctx);
        msgs += m;
        bytes += b;
        builds += built;
        replays += replayed;
        i += 1;
    }
    let solves = seconds.len() as f64;
    let p50 = typical(&seconds, w.slots());
    ledger.set("dist.backend.wall_over_shared", p50 / shared_p50);
    ledger.set("dist.backend.solve_s_p90", percentile(&seconds, 0.9));
    ledger.set("dist.comm.msgs_per_solve", msgs as f64 / solves);
    ledger.set("dist.comm.bytes_per_solve", bytes as f64 / solves);
    ledger.set("dist.sched.builds", builds as f64 / solves);
    ledger.set("dist.sched.replays", replays as f64 / solves);
    ledger.set("dist.sched.replay_ratio", replays as f64 / (builds + replays).max(1) as f64);
    // Operands moving in, multiplying in place, results moving out: the
    // phase names of the SpMSpV, SpMV and SUMMA kernels, by class.
    let share = |names: &[&str]| {
        // `+ 0.0`: an empty sum is -0.0, which would print as "-0".
        (names.iter().filter_map(|n| phases.get(*n)).sum::<f64>() + 0.0) / sim_total
    };
    ledger.set("sim.gather_share", share(&["gather", "broadcast", "replicate"]));
    ledger.set("sim.local_share", share(&["local"]));
    ledger.set("sim.scatter_share", share(&["scatter", "combine"]));
    ledger.set("sim.wall_per_sim_s", seconds.iter().sum::<f64>() / sim_total);

    let mut threaded = Vec::with_capacity(SIDE_SOLVES);
    for i in 0..SIDE_SOLVES {
        let dctx = lib::dist_ctx(W::GRID.0 * W::GRID.1, false);
        let (answer, s) = rec.timed("dist.solve", || w.solve_dist(i, &dctx));
        answer?;
        threaded.push(s);
    }
    let serial = typical(&seconds[..SIDE_SOLVES.min(seconds.len())], w.slots());
    ledger.set("dist.exec.threaded_over_serial", typical(&threaded, w.slots()) / serial);
    let (supersteps, _) =
        lib::library_trace_counts(&mut fresh_dist_ctx::<W>(), |d| w.solve_dist(0, d).map(drop))?;
    ledger.set("dist.exec.supersteps_per_solve", supersteps as f64);
    Ok((seconds.len() as u64 + SIDE_SOLVES as u64, failed))
}

/// Fastest wall seconds of `gblas-cli` solving the workload's input in a
/// process of its own.
fn cli_seconds(cli: &Path, args: &[String], rec: &mut Recorder) -> Result<f64, String> {
    let mut seconds = Vec::with_capacity(CLI_RUNS);
    for _ in 0..CLI_RUNS {
        let (status, s) = rec.timed("cli", || {
            Command::new(cli)
                .args(args)
                .args(["--threads", &THREADS.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
        });
        let status = status.map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
        if !status.success() {
            return Err(format!("{} {} exited with {status}", cli.display(), args.join(" ")));
        }
        seconds.push(s);
    }
    Ok(fastest(&seconds))
}

/// The whole traced run of workload `W`.
pub fn run<W: Workload>(cfg: &Config, env: &TraceEnv) -> Result<Outcome, String> {
    let cli = env.cli_bin.as_deref().ok_or("the traced run needs --cli-bin (run.sh passes it)")?;
    let out_dir = env.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let alloc = env.alloc;
    let mut rec = Recorder::default();
    let mut ledger = Ledger::default();

    // Set-up, one span per layer call.
    (alloc.set_enabled)(false);
    let (set_up, _) = rec.scope("setup", |r| e2e::set_up::<W>(cfg, r));
    let (mut w, ctx, _) = set_up?;
    w.prepare_oracle();
    let generate_s: f64 = rec.durations("core.gen.graph").iter().sum::<f64>()
        + rec.durations("core.container.symmetrize").iter().sum::<f64>();
    ledger.set("core.gen.graph_s", rec.durations("core.gen.graph").iter().sum());
    ledger.set("dist.mat.from_global_s", rec.durations("dist.mat.from_global").iter().sum());

    // The shared-memory leg: an untraced loop first (no spans, allocator
    // not counting), then the traced one; their difference is what
    // tracing costs.
    let window = cfg.seconds * SHARED_SHARE * TRACED_SHARE;
    let plain = e2e::shared_loop(&w, &ctx, window);
    (alloc.set_enabled)(true);
    let traced = traced_loop(&w, &ctx, window, alloc, &mut rec)?;
    (alloc.set_enabled)(false);
    let plain_p50 = typical(&plain.seconds, w.slots());
    let solves = traced.seconds.len() as f64;
    let solve_seconds: f64 = traced.seconds.iter().sum();
    let kernel_share = traced.kernel_seconds / solve_seconds;
    let traced_p50 = typical(&traced.seconds, w.slots());
    ledger.set("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50);
    ledger.set("core.backend.kernel_share", kernel_share);
    ledger.set("graph.driver_self_share", 1.0 - kernel_share);
    ledger.set("graph.iterations", traced.iterations as f64);
    ledger.set("graph.solve_s_p90", percentile(&plain.seconds, 0.9));
    ledger.set("graph.solve_samples", plain.seconds.len() as f64);
    ledger.set("core.workspace.allocs_per_solve", traced.allocs as f64 / solves);
    ledger.set("core.workspace.alloc_bytes_per_solve", traced.alloc_bytes as f64 / solves);
    ledger.set("core.par.tasks_per_solve", traced.tasks as f64 / solves);
    ledger.set("core.par.regions_per_solve", traced.regions as f64 / solves);
    let (hits, misses) = lib::pool_stats(&ctx);
    ledger.set("core.workspace.pool_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);

    let one_thread = lib::shared_ctx(1);
    w.solve(0, &one_thread)?;
    ledger.set("core.par.speedup_2t", side_solves(&w, &one_thread, &mut rec)? / plain_p50);
    lib::set_pooling(&ctx, false);
    let unpooled = side_solves(&w, &ctx, &mut rec);
    lib::set_pooling(&ctx, true);
    let pooling = two_clock::Pair {
        stem: "core.workspace.unpooled_over_pooled",
        what: "shared solve, workspace pooling off / on",
        wall: unpooled? / plain_p50,
        dist_wall: None,
        sim: None,
    };

    // The distributed leg.
    let dist_window = cfg.seconds * (1.0 - SHARED_SHARE) * TRACED_SHARE;
    let (dist_attempted, dist_failed) =
        dist_leg(&w, dist_window, plain_p50, &mut rec, &mut ledger)?;

    // Kernel probes.
    probes::setup_layers(&w, cfg.quick, cfg.seed, &mut rec, &mut ledger)?;
    let sort_share =
        probes::frontier_kernels(w.graph(), cfg.quick, cfg.seed, &ctx, &mut rec, &mut ledger)?;
    probes::dense_kernels(w.graph(), &ctx, &mut rec, &mut ledger)?;
    let m = probes::matrix_kernels(&w, cfg.seed, &ctx, &mut rec, &mut ledger)?;
    probes::paper_pairs(cfg.quick, cfg.seed, &ctx, &mut rec, &mut ledger)?;
    probes::dist_kernels(&w, &m, cfg.seed, &mut rec, &mut ledger)?;

    // The two-clock pairs.
    let mut pairs = two_clock::bfs_pairs(&w, cfg.seed, &ctx, &mut rec)?;
    pairs.push(two_clock::sched_pair(&w, &mut rec)?);
    pairs.push(two_clock::summa_pair(&m, &mut rec)?);
    pairs.push(pooling);
    two_clock::record(&pairs, &mut ledger);

    // The command line and the serving path.
    let cli_s = cli_seconds(cli, &w.cli_args(cfg.seed, cfg.quick), &mut rec)?;
    ledger.set("cli.wall_s", cli_s);
    ledger.set("cli.overhead_s", cli_s - generate_s - plain_p50);
    let (qps, _) =
        rec.timed("bench.serve", || lib::serve_qps(w.graph(), THREADS, SERVE_REQUESTS, cfg.seed));
    let (batched, looped) = qps?;
    ledger.set("bench.serve.qps_batched_k8", batched);
    ledger.set("bench.serve.qps_loop", looped);

    // The harness's own account.
    let (by_name, roots) = spans::self_time_by_name(rec.spans());
    let self_total: f64 = by_name.values().sum();
    let attempted = (plain.seconds.len() + 2 * traced.seconds.len()) as u64 + dist_attempted;
    let failed = plain.failed + traced.failed + dist_failed;
    ledger.set("trace.self_time_gap_share", (self_total - roots).abs() / roots);
    ledger.set("trace.spans", rec.spans().len() as f64);
    ledger.set("harness.failed_share", failed as f64 / attempted as f64);
    ledger.set("harness.threads", THREADS as f64);
    ledger.set(
        "harness.host_cores",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );

    let host = format!(
        "seed {}, {} threads, {} host cores, {}",
        cfg.seed,
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg.quick { "quick inputs" } else { "full inputs" }
    );
    let trace_path = out_dir.join(format!("trace-{}.jsonl", W::NAME));
    rec.write_jsonl(&trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let section_path = out_dir.join(format!("two_clock-{}.md", W::NAME));
    std::fs::write(&section_path, two_clock::section(W::NAME, &host, &pairs, sort_share))
        .map_err(|e| format!("{}: {e}", section_path.display()))?;

    let mut notes = vec![
        format!("{}: {host}", W::NAME),
        format!(
            "traced solves {} (+{} untraced), self times sum to {:.6} s of {:.6} s in root spans",
            traced.seconds.len(),
            plain.seconds.len(),
            self_total,
            roots
        ),
    ];
    let mut top: Vec<(&str, f64)> = by_name.into_iter().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.extend(top.iter().take(8).map(|(name, s)| format!("self time {name:<34} {s:>10.6} s")));
    notes.extend(pairs.iter().filter(|p| p.disagrees()).map(|p| {
        format!(
            "FINDING {}: wall {:.3} but simulated {:.3} - the clocks disagree",
            p.stem,
            p.wall,
            p.sim.unwrap_or(f64::NAN)
        )
    }));
    notes.push(format!("spans written to {}", trace_path.display()));
    Ok(Outcome { attempted, failed, metrics: ledger.into_metrics()?, notes })
}

/// `--workload all --trace 1`: gather the workloads' sections into
/// `results/two_clock.md`.
pub fn write_two_clock_report(bench_dir: &Path) -> Result<(), String> {
    let mut sections = Vec::new();
    for (workload, _) in crate::names::WORKLOADS {
        let path = bench_dir.join("out").join(format!("two_clock-{workload}.md"));
        sections
            .push(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let path = bench_dir.join("results").join("two_clock.md");
    std::fs::write(&path, two_clock::document(&sections))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ledger_wants_every_catalogue_metric_and_nothing_else() {
        let mut ledger = Ledger::default();
        for m in PER_LAYER {
            ledger.set(m.0, 1.0);
        }
        assert_eq!(ledger.into_metrics().unwrap().len(), PER_LAYER.len());
        let mut ledger = Ledger::default();
        ledger.set(PER_LAYER[0].0, 1.0);
        assert!(ledger.into_metrics().unwrap_err().contains("was not measured"));
        let mut ledger = Ledger::default();
        ledger.set("no.such.metric", 1.0);
        assert!(ledger.into_metrics().unwrap_err().contains("not a catalogue metric"));
    }
}
