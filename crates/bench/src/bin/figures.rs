//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run -p gblas-bench --release --bin figures -- [--fig N|all] [--scale S] [--out DIR]
//!                                                     [--trace FILE] [--spmspv-merge sort|bucket]
//! ```
//!
//! * `--fig N` — a figure number 1..10 (6 is the SPA diagram: no data);
//!   `ablations` for the design-choice sweeps, `algorithms` for the
//!   node sweep of the newly-distributed analytics (triangles, k-core,
//!   MIS, betweenness via the backend trait), `imbalance` for the trace
//!   profiler's load-imbalance factor vs locale count (BFS and PageRank),
//!   `serving` for the query-serving throughput-vs-batch-size sweep
//!   (batched multi-source BFS vs the k-loop baseline), `direction` for
//!   the direction-optimizing BFS ablation (auto vs static push/pull on
//!   a skewed RMAT graph), `spgemm` for the SpGEMM sweep; `all`
//!   (default) runs everything. Any other value is a usage error (exit
//!   status 2).
//! * `--scale S` — divide the paper's large input sizes (1M/10M/100M) by
//!   `S` for quick runs; default 1 (full paper sizes, needs ~8 GB RAM and
//!   a few minutes).
//! * `--out DIR` — CSV output directory, default `results`.
//! * `--spmspv-merge sort|bucket` — merge strategy for the SpMSpV figures
//!   (7–9): the paper's comparison sort (the default here, so the figures
//!   stay the paper's) or the library's default, the bucketed merge of
//!   the paper's reference \[9\].
//! * `--trace FILE` — record every simulated operation across all figures
//!   into one trace: Chrome trace-event JSON, or JSONL when `FILE` ends in
//!   `.jsonl`. Metrics are printed at the end.

use gblas_bench::figs::{self, run_fig_with, PAPER_MERGE};
use gblas_bench::{serve, Figure};
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::trace::sink;
use std::path::PathBuf;

const USAGE: &str = "usage: figures [--fig N|ablations|algorithms|imbalance|serving|direction|\
                     spgemm|all] [--scale S] [--out DIR] [--trace FILE] \
                     [--spmspv-merge sort|bucket]";

/// What one `--fig` value draws at a scale, under the SpMSpV options.
type Sweep = fn(usize, SpMSpVOpts) -> Vec<Figure>;

/// Every `--fig` value, in the order `all` runs them.
const SWEEPS: [(&str, Sweep); 16] = [
    ("1", |s, o| run_fig_with(1, s, o)),
    ("2", |s, o| run_fig_with(2, s, o)),
    ("3", |s, o| run_fig_with(3, s, o)),
    ("4", |s, o| run_fig_with(4, s, o)),
    ("5", |s, o| run_fig_with(5, s, o)),
    ("6", |_, _| {
        println!("\n=== fig06 — SPA diagram (Fig 6): illustrative only, nothing to measure ===");
        Vec::new()
    }),
    ("7", |s, o| run_fig_with(7, s, o)),
    ("8", |s, o| run_fig_with(8, s, o)),
    ("9", |s, o| run_fig_with(9, s, o)),
    ("10", |s, o| run_fig_with(10, s, o)),
    ("ablations", |s, _| figs::fig_ablations(s)),
    ("algorithms", |s, _| figs::fig_algorithms(s)),
    ("imbalance", |s, _| figs::fig_imbalance(s)),
    ("serving", |s, _| serve::fig_serving(s)),
    ("direction", |s, _| figs::fig_direction(s)),
    ("spgemm", |s, _| figs::fig_spgemm(s)),
];

/// Print `msg` and the usage line, and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut selected: &[(&str, Sweep)] = &SWEEPS;
    let mut scale = 1usize;
    let mut out = PathBuf::from("results");
    let mut trace_out: Option<String> = None;
    let mut opts = PAPER_MERGE;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return;
        }
        let value = args.next().unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--fig" if value == "all" => selected = &SWEEPS,
            "--fig" => {
                let Some(i) = SWEEPS.iter().position(|(name, _)| *name == value) else {
                    usage_error(&format!("no figure '{value}'"))
                };
                selected = &SWEEPS[i..=i];
            }
            "--scale" => {
                scale = value.parse().unwrap_or_else(|_| usage_error("--scale expects an integer"))
            }
            "--out" => out = PathBuf::from(value),
            "--trace" => trace_out = Some(value),
            "--spmspv-merge" => {
                let merge = MergeStrategy::parse(&value)
                    .unwrap_or_else(|| usage_error("--spmspv-merge expects sort|bucket"));
                opts = SpMSpVOpts::with_merge(merge);
            }
            _ => usage_error(&format!("unknown argument {flag}")),
        }
    }
    gblas_bench::configure(gblas_dist::RunConfig::from_env());
    println!("# chapel-graphblas-rs figure harness");
    println!("# scale = {scale} (paper sizes divided by this)");
    println!("# spmspv merge = {}", opts.merge.name());
    let tracing = trace_out.as_ref().map(|_| figs::enable_tracing());
    for (name, sweep) in selected {
        let t0 = std::time::Instant::now();
        for fig in sweep(scale, opts) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# --fig {name} regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if let (Some(path), Some((recorder, metrics))) = (trace_out, tracing) {
        let trace = recorder.snapshot();
        let text =
            if path.ends_with(".jsonl") { sink::jsonl(&trace) } else { sink::chrome_trace(&trace) };
        match std::fs::write(&path, text) {
            Ok(()) => println!(
                "# trace: {} spans, {} events, {:.6}s simulated -> {path}",
                trace.spans.len(),
                trace.instants.len(),
                trace.sim_end()
            ),
            Err(e) => eprintln!("# trace write failed: {e}"),
        }
        println!("# metrics:");
        print!("{}", metrics.snapshot());
    }
}
