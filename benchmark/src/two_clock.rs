//! The two-clock report: each ablation the simulated clock has ranked,
//! run again with a stopwatch beside it.
//!
//! A pair is `variant / baseline`. Its wall ratio is what this host
//! measures in shared memory with two threads (for the two distributed
//! ablations: on the simulated cluster with locale bodies run serially);
//! its simulated ratio is what the cost model reports for the same
//! variant and baseline on the simulated cluster. Where one clock says
//! "faster" and the other "slower", the row is flagged: that is a finding
//! to explain, not noise.

use crate::e2e::THREADS;
use crate::ledger::Ledger;
use crate::probes;
use crate::spans::Recorder;
use crate::stats::{fastest, SplitMix64};
use crate::surface::{self as lib, DistCtx, ExecCtx, Graph, SimReport};
use crate::workloads::Workload;
use std::fmt::Write as _;

/// Ratios closer to each other than this are not called a disagreement.
const DISAGREE_MARGIN: f64 = 0.05;

/// One ablation on both clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Metric stem (`<stem>_wall`, `<stem>_sim`).
    pub stem: &'static str,
    pub what: &'static str,
    pub wall: f64,
    /// Wall ratio of the distributed runs the simulated ratio came from.
    pub dist_wall: Option<f64>,
    pub sim: Option<f64>,
}

impl Pair {
    /// The clocks rank the variant and the baseline in opposite orders.
    pub fn disagrees(&self) -> bool {
        self.sim.is_some_and(|sim| {
            (self.wall - 1.0) * (sim - 1.0) < 0.0 && (self.wall - sim).abs() > DISAGREE_MARGIN
        })
    }
}

/// Wall seconds of `f` over `inputs`, one span per call.
fn wall_over<T: Copy>(
    rec: &mut Recorder,
    name: &'static str,
    inputs: &[T],
    mut f: impl FnMut(T) -> Result<(), String>,
) -> Result<f64, String> {
    let mut total = 0.0;
    for &input in inputs {
        let (result, s) = rec.timed(name, || f(input));
        result?;
        total += s;
    }
    Ok(total)
}

/// `(wall seconds, simulated seconds)` of a distributed `f` over
/// `inputs`, each on a fresh simulated cluster.
fn dist_over<T: Copy>(
    rec: &mut Recorder,
    locales: usize,
    inputs: &[T],
    mut f: impl FnMut(T, &DistCtx) -> Result<SimReport, String>,
) -> Result<(f64, f64), String> {
    let (mut wall, mut sim) = (0.0, 0.0);
    for &input in inputs {
        let dctx = lib::dist_ctx(locales, true);
        let (report, s) = rec.timed("dist.solve", || f(input, &dctx));
        wall += s;
        sim += lib::sim_total(&report?);
    }
    Ok((wall, sim))
}

/// The three BFS ablations on the workload's graph: adaptive direction
/// against plain push, bucketed against sort-based merge, and one batched
/// sweep of eight sources against eight solves.
pub fn bfs_pairs<W: Workload>(
    w: &W,
    seed: u64,
    ctx: &ExecCtx,
    rec: &mut Recorder,
) -> Result<Vec<Pair>, String> {
    let (a, da): (&Graph, _) = (w.graph(), w.dist_graph());
    let locales = W::GRID.0 * W::GRID.1;
    let eight = probes::sources(a, 8, &mut SplitMix64(seed ^ 0x2C10C));
    let three = &eight[..3];

    let push = wall_over(rec, "graph.solve", three, |s| lib::bfs(a, s, ctx).map(drop))?;
    let auto = wall_over(rec, "graph.solve", three, |s| lib::bfs_auto(a, s, ctx).map(drop))?;
    let bucket = wall_over(rec, "graph.solve", three, |s| lib::bfs_bucketed(a, s, ctx).map(drop))?;
    let push_d = dist_over(rec, locales, three, |s, d| lib::bfs_dist(da, s, d).map(|r| r.1))?;
    let auto_d = dist_over(rec, locales, three, |s, d| lib::bfs_dist_auto(da, s, d))?;
    let bucket_d = dist_over(rec, locales, three, |s, d| lib::bfs_dist_bucketed(da, s, d))?;

    let looped = wall_over(rec, "graph.solve", &eight, |s| lib::bfs(a, s, ctx).map(drop))?;
    let batched =
        wall_over(rec, "graph.solve", &[()], |()| lib::bfs_multi(a, &eight, ctx).map(drop))?;
    let looped_d = dist_over(rec, locales, &eight, |s, d| lib::bfs_dist(da, s, d).map(|r| r.1))?;
    let batched_d = dist_over(rec, locales, &[()], |(), d| lib::bfs_multi_dist(da, &eight, d))?;

    let pair = |stem, what, wall: f64, base: f64, d: (f64, f64), base_d: (f64, f64)| Pair {
        stem,
        what,
        wall: wall / base,
        dist_wall: Some(d.0 / base_d.0),
        sim: Some(d.1 / base_d.1),
    };
    Ok(vec![
        pair(
            "graph.bfs.auto_over_push",
            "bfs_selected(Auto) / bfs (push)",
            auto,
            push,
            auto_d,
            push_d,
        ),
        pair(
            "graph.bfs.bucket_over_sort",
            "bfs, bucketed merge / sort-based merge",
            bucket,
            push,
            bucket_d,
            push_d,
        ),
        pair(
            "graph.bfs_multi.k8_over_loop",
            "bfs_multi of 8 sources / 8 x bfs",
            batched,
            looped,
            batched_d,
            looped_d,
        ),
    ])
}

/// The workload's own distributed solve with communication schedules
/// rebuilt on every call, against replayed ones.
pub fn sched_pair<W: Workload>(w: &W, rec: &mut Recorder) -> Result<Pair, String> {
    let mut run = |on: bool| -> Result<(f64, f64), String> {
        let (mut wall, mut sim) = (Vec::new(), 0.0);
        for i in 0..2 {
            let dctx = crate::workloads::fresh_dist_ctx::<W>();
            lib::set_schedules(&dctx, on);
            let (answer, s) = rec.timed("dist.solve", || w.solve_dist(i, &dctx));
            wall.push(s);
            sim += lib::sim_total(&answer?.1);
        }
        Ok((fastest(&wall), sim))
    };
    let on = run(true)?;
    let off = run(false)?;
    Ok(Pair {
        stem: "dist.sched.off_over_on",
        what: "dist solve, schedules off / on",
        wall: off.0 / on.0,
        dist_wall: Some(off.0 / on.0),
        sim: Some(off.1 / on.1),
    })
}

/// 3-D SUMMA (two layers over a 2x2 grid, eight locales) against the 2-D
/// multi-stage SUMMA on the same 2x2 grid, multiplying `m` by itself.
pub fn summa_pair(m: &Graph, rec: &mut Recorder) -> Result<Pair, String> {
    let dm = lib::distribute(m, (2, 2));
    let mut run = |layers: usize| -> Result<(f64, f64), String> {
        let dctx = lib::dist_ctx(4 * layers, true);
        let (out, s) = rec.timed("dist.ops.mxm", || lib::mxm_dist_square(&dm, layers, &dctx));
        Ok((s, lib::sim_total(&out?.1)))
    };
    let flat = run(1)?;
    let stacked = run(2)?;
    Ok(Pair {
        stem: "dist.ops.mxm.summa3d_over_2d",
        what: "mxm_dist A*A, 3-D SUMMA (2 layers) / 2-D",
        wall: stacked.0 / flat.0,
        dist_wall: Some(stacked.0 / flat.0),
        sim: Some(stacked.1 / flat.1),
    })
}

/// Record the pairs in the ledger.
pub fn record(pairs: &[Pair], ledger: &mut Ledger) {
    for p in pairs {
        ledger.set(&format!("{}_wall", p.stem), p.wall);
        if let Some(sim) = p.sim {
            ledger.set(&format!("{}_sim", p.stem), sim);
        }
    }
}

/// One workload's section of the report.
pub fn section(workload: &str, host: &str, pairs: &[Pair], sort_share: (f64, f64)) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "## {workload}\n");
    let _ = writeln!(s, "{host}\n");
    let _ = writeln!(s, "| pair | what | wall ratio | dist wall ratio | sim ratio | |");
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    for p in pairs {
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
        let _ = writeln!(
            s,
            "| `{}` | {} | {:.3} | {} | {} | {} |",
            p.stem,
            p.what,
            p.wall,
            cell(p.dist_wall),
            cell(p.sim),
            if p.disagrees() { "**DISAGREE**" } else { "" }
        );
    }
    let find = |stem: &str| pairs.iter().find(|p| p.stem == stem);
    let _ = writeln!(s);
    if let Some(p) = find("graph.bfs.auto_over_push") {
        let sim = p.sim.unwrap_or(f64::NAN);
        let verdict = if p.wall > 1.0 + DISAGREE_MARGIN && sim <= 1.0 + DISAGREE_MARGIN {
            "reproduced"
        } else {
            "not reproduced here"
        };
        let _ = writeln!(
            s,
            "- Motivation finding 1 (adaptive BFS is slower than plain push on the wall clock \
             although the simulated clock ranks it no worse): {verdict} - wall {:.2}x, \
             simulated {:.2}x.",
            p.wall, sim
        );
    }
    if let Some(p) = find("graph.bfs_multi.k8_over_loop") {
        let sim = p.sim.unwrap_or(f64::NAN);
        let verdict = if p.wall > 0.9 && sim < 0.9 { "reproduced" } else { "not reproduced here" };
        let _ = writeln!(
            s,
            "- Motivation finding 2 (batching eight sources wins nothing in shared memory although \
             the simulated clock claims a win): {verdict} - wall {:.2}x of the loop, simulated \
             {:.2}x.",
            p.wall, sim
        );
    }
    let _ = writeln!(
        s,
        "- Paper finding 3 (sorting dominates shared-memory SpMSpV), at f = 2 % with {THREADS} \
         threads: the sort is {:.0} % of the operation on the wall clock and {:.0} % on the \
         simulated clock - {}.",
        sort_share.0 * 100.0,
        sort_share.1 * 100.0,
        match (sort_share.0 > 0.5, sort_share.1 > 0.5) {
            (true, true) => "confirmed on both clocks",
            (false, true) => "the simulated clock says so, the wall clock does not",
            (true, false) => "the wall clock says so, the simulated clock does not",
            (false, false) => "on neither clock is the sort the larger part",
        }
    );
    s
}

/// The whole report from the per-workload sections.
pub fn document(sections: &[String]) -> String {
    let mut s = String::from(
        "# Two-clock report\n\nGenerated by the traced run (`benchmark/run.sh --workload all \
         --trace 1`); do not edit.\n\nEach row is `variant / baseline`. *wall ratio*: shared \
         memory, two threads, this host (for the `dist.*` rows: the simulated cluster with locale \
         bodies run serially). *dist wall ratio* and *sim ratio*: the same ablation on the \
         simulated cluster (2x2 locales for bfs and pagerank, 2x3 for triangles and mcl), wall \
         seconds and simulated seconds of the same runs. A row is flagged when one clock says \
         faster and the other slower by more than 0.05.\n\n",
    );
    for section in sections {
        s.push_str(section);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(wall: f64, sim: Option<f64>) -> Pair {
        Pair { stem: "graph.bfs.auto_over_push", what: "x", wall, dist_wall: None, sim }
    }

    #[test]
    fn disagreement_needs_opposite_sides_and_a_margin() {
        assert!(pair(3.4, Some(0.9)).disagrees());
        assert!(pair(0.5, Some(1.3)).disagrees());
        assert!(!pair(1.2, Some(1.5)).disagrees());
        assert!(!pair(1.01, Some(0.99)).disagrees());
        assert!(!pair(3.4, None).disagrees());
    }

    #[test]
    fn the_section_states_every_finding() {
        let pairs = vec![
            pair(3.4, Some(0.9)),
            Pair {
                stem: "graph.bfs_multi.k8_over_loop",
                what: "y",
                wall: 1.0,
                dist_wall: Some(0.7),
                sim: Some(0.3),
            },
        ];
        let text = section("bfs", "2 cores", &pairs, (0.3, 0.7));
        assert!(text.contains("**DISAGREE**"));
        assert!(text.contains("finding 1") && text.contains("reproduced"));
        assert!(text.contains("finding 2"));
        assert!(text.contains("the simulated clock says so, the wall clock does not"));
        assert!(document(&[text]).starts_with("# Two-clock report"));
    }
}
