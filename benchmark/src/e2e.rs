//! The untraced run: the end-to-end metrics of one workload.
//!
//! One process, one client, closed loop. The run sets the workload up
//! (several times), then measures a shared-memory loop and a distributed
//! loop for fixed shares of `--seconds`, timing each solve on its own.
//! Checks against the oracle run between solves, outside every timer.
//!
//! Every reported time is a best-of-repeats reading (see
//! [`crate::stats::typical`]): the host is shared, its speed swings by
//! the second, and the fastest repeat of an input is the one least
//! disturbed. The plain median and p90 of all solves are printed beside
//! it for the reader.

use crate::spans::Untraced;
use crate::stats::{best_per_slot, fastest, median, peak_rss_mib, percentile, typical};
use crate::surface::{self as lib, ExecCtx};
use crate::workloads::{fresh_dist_ctx, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Worker threads of the shared-memory leg.
pub const THREADS: usize = 2;
/// Solves that warm the workspace pool before anything is timed; part of
/// `setup_s`.
pub const WARMUP_SOLVES: usize = 5;
/// Set-ups per run; `setup_s` is the fastest generation plus the fastest
/// warm-up among them.
const SETUPS: usize = 3;
/// Share of `--seconds` the shared-memory loop measures; the distributed
/// loop measures the rest.
pub const SHARED_SHARE: f64 = 0.6;

/// What the command line asks of a run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and other lines for a human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run `f`, turning a panic into an error like any other failed solve.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("solve panicked".into()))
}

/// Generate the inputs and warm a fresh context up; returns them with the
/// wall seconds of the two steps, `(generate, warm up)`.
pub fn set_up<W: Workload>(
    cfg: &Config,
    tracer: &mut impl crate::spans::Tracer,
) -> Result<(W, ExecCtx, (f64, f64)), String> {
    let start = Instant::now();
    let w = W::generate(cfg.seed, cfg.quick, tracer)?;
    let generated = start.elapsed().as_secs_f64();
    let ctx = lib::shared_ctx(THREADS);
    for i in 0..WARMUP_SOLVES {
        w.solve(i, &ctx)?;
    }
    Ok((w, ctx, (generated, start.elapsed().as_secs_f64() - generated)))
}

/// Per-solve wall seconds of a measured loop, and what was learnt beside
/// them.
pub struct SharedLoop<W: Workload> {
    pub seconds: Vec<f64>,
    /// Edges one solve of every input slot processes.
    pub edges: Vec<u64>,
    /// First shared-memory answer of every input slot, as kept.
    pub kept: Vec<Option<W::Kept>>,
    pub failed: u64,
}

impl<W: Workload> SharedLoop<W> {
    /// Million edges per second over one pass through the inputs, each at
    /// its fastest repeat.
    pub fn medges_per_s(&self) -> f64 {
        let best = best_per_slot(&self.seconds, self.edges.len());
        let edges: u64 = self.edges[..best.len()].iter().sum();
        edges as f64 / best.iter().sum::<f64>() / 1e6
    }
}

/// The shared-memory loop: solve, time, check, until `window` seconds
/// have passed.
pub fn shared_loop<W: Workload>(w: &W, ctx: &ExecCtx, window: f64) -> SharedLoop<W> {
    let mut out = SharedLoop {
        seconds: Vec::new(),
        edges: vec![0; w.slots()],
        kept: (0..w.slots()).map(|_| None).collect(),
        failed: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while out.seconds.is_empty() || start.elapsed().as_secs_f64() < window {
        let t = Instant::now();
        let answer = guarded(|| w.solve(i, ctx));
        out.seconds.push(t.elapsed().as_secs_f64());
        match answer {
            Ok(answer) => {
                if !w.check(i, &answer) {
                    out.failed += 1;
                }
                let slot = i % w.slots();
                if out.kept[slot].is_none() {
                    out.edges[slot] = w.edges(&answer);
                    out.kept[slot] = Some(w.keep(&answer));
                }
            }
            Err(_) => out.failed += 1,
        }
        i += 1;
    }
    out
}

pub struct DistLoop {
    pub seconds: Vec<f64>,
    /// Simulated seconds of the first `SIM_SOLVES` solves, summed.
    pub sim_seconds: f64,
    pub failed: u64,
}

/// The distributed loop: a fresh simulated cluster per solve, at least
/// `W::SIM_SOLVES` solves, then until `window` seconds have passed.
pub fn dist_loop<W: Workload>(w: &W, kept: &[Option<W::Kept>], window: f64) -> DistLoop {
    let mut out = DistLoop { seconds: Vec::new(), sim_seconds: 0.0, failed: 0 };
    let start = Instant::now();
    let mut i = 0;
    while i < W::SIM_SOLVES || start.elapsed().as_secs_f64() < window {
        let dctx = fresh_dist_ctx::<W>();
        let t = Instant::now();
        let answer = guarded(|| w.solve_dist(i, &dctx));
        out.seconds.push(t.elapsed().as_secs_f64());
        match answer {
            Ok((answer, report)) => {
                if i < W::SIM_SOLVES {
                    out.sim_seconds += lib::sim_total(&report);
                }
                // A slot the shared loop never reached has nothing to
                // compare against; its solve still counts as attempted.
                if let Some(kept) = &kept[i % w.slots()] {
                    if !w.agrees(kept, &answer) {
                        out.failed += 1;
                    }
                }
            }
            Err(_) => out.failed += 1,
        }
        i += 1;
    }
    out
}

/// The whole untraced run of workload `W`.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let (mut generate, mut warm_up) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut last = None;
    for _ in 0..if cfg.quick { 1 } else { SETUPS } {
        // Drop the previous inputs first: two copies alive at once would
        // double the peak the run reports.
        drop(last.take());
        let (w, ctx, seconds) = set_up::<W>(cfg, &mut Untraced)?;
        generate.push(seconds.0);
        warm_up.push(seconds.1);
        last = Some((w, ctx));
    }
    let (mut w, ctx) = last.expect("at least one set-up ran");
    w.prepare_oracle();

    let shared = shared_loop(&w, &ctx, cfg.seconds * SHARED_SHARE);
    let dist = dist_loop(&w, &shared.kept, cfg.seconds * (1.0 - SHARED_SHARE));
    let peak = peak_rss_mib()?;

    let mut out = Outcome {
        attempted: (shared.seconds.len() + dist.seconds.len()) as u64,
        failed: shared.failed + dist.failed,
        ..Outcome::default()
    };
    out.metrics = vec![
        ("solve_s_p50", typical(&shared.seconds, w.slots())),
        ("medges_per_s", shared.medges_per_s()),
        ("dist_solve_s_p50", typical(&dist.seconds, w.slots())),
        ("sim_s", dist.sim_seconds),
        ("setup_s", fastest(&generate) + fastest(&warm_up)),
        ("peak_rss_mb", peak),
    ];
    out.notes = vec![
        format!(
            "{}: seed {} threads {} host cores {}",
            W::NAME,
            cfg.seed,
            THREADS,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!(
            "shared solves {} (all solves: median {:.6} p90 {:.6} s), dist solves {} (median \
             {:.6} s) on {}x{} (sim_s over the first {}), set-ups {}",
            shared.seconds.len(),
            median(&shared.seconds),
            percentile(&shared.seconds, 0.9),
            dist.seconds.len(),
            median(&dist.seconds),
            W::GRID.0,
            W::GRID.1,
            W::SIM_SOLVES,
            generate.len()
        ),
        format!(
            "failed_share {} ({} of {} operations)",
            out.failed as f64 / out.attempted as f64,
            out.failed,
            out.attempted
        ),
    ];
    Ok(out)
}
