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
//!   a skewed RMAT graph), `overlap` for the split-phase (compute/comm
//!   overlap) pricing ablation over BFS and PageRank node sweeps;
//!   `all` (default) runs everything.
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

use gblas_bench::figs::{run_fig_with, PAPER_MERGE};
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::trace::sink;
use std::path::PathBuf;

fn main() {
    let mut figs: Vec<usize> = (1..=10).collect();
    let mut ablations = true;
    let mut algorithms = true;
    let mut imbalance = true;
    let mut serving = true;
    let mut direction = true;
    let mut overlap = true;
    let mut spgemm = true;
    let mut scale = 1usize;
    let mut out = PathBuf::from("results");
    let mut trace_out: Option<String> = None;
    let mut opts = PAPER_MERGE;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                let v = args.get(i).expect("--fig needs a value");
                if v == "ablations" {
                    figs = Vec::new();
                    algorithms = false;
                    imbalance = false;
                    serving = false;
                    direction = false;
                    overlap = false;
                    spgemm = false;
                } else if v == "algorithms" {
                    figs = Vec::new();
                    ablations = false;
                    imbalance = false;
                    serving = false;
                    direction = false;
                    overlap = false;
                    spgemm = false;
                } else if v == "imbalance" {
                    figs = Vec::new();
                    ablations = false;
                    algorithms = false;
                    serving = false;
                    direction = false;
                    overlap = false;
                    spgemm = false;
                } else if v == "serving" {
                    figs = Vec::new();
                    ablations = false;
                    algorithms = false;
                    imbalance = false;
                    direction = false;
                    overlap = false;
                    spgemm = false;
                } else if v == "direction" {
                    figs = Vec::new();
                    ablations = false;
                    algorithms = false;
                    imbalance = false;
                    serving = false;
                    overlap = false;
                    spgemm = false;
                } else if v == "overlap" {
                    figs = Vec::new();
                    ablations = false;
                    algorithms = false;
                    imbalance = false;
                    serving = false;
                    direction = false;
                    spgemm = false;
                } else if v == "spgemm" {
                    figs = Vec::new();
                    ablations = false;
                    algorithms = false;
                    imbalance = false;
                    serving = false;
                    direction = false;
                    overlap = false;
                } else if v != "all" {
                    figs = vec![v.parse().expect(
                        "--fig expects 1..10, 'ablations', 'algorithms', 'imbalance', \
                         'serving', 'direction', 'overlap', 'spgemm' or 'all'",
                    )];
                    ablations = false;
                    algorithms = false;
                    imbalance = false;
                    serving = false;
                    direction = false;
                    overlap = false;
                    spgemm = false;
                }
            }
            "--scale" => {
                i += 1;
                scale = args.get(i).expect("--scale needs a value").parse().expect("integer scale");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).expect("--out needs a value"));
            }
            "--trace" => {
                i += 1;
                trace_out = Some(args.get(i).expect("--trace needs a value").clone());
            }
            "--spmspv-merge" => {
                i += 1;
                let v = args.get(i).expect("--spmspv-merge needs a value");
                opts = SpMSpVOpts::with_merge(
                    MergeStrategy::parse(v).expect("--spmspv-merge expects sort|bucket"),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig N|ablations|algorithms|imbalance|serving|direction|\
                     overlap|spgemm|all] [--scale S] [--out DIR] [--trace FILE] \
                     [--spmspv-merge sort|bucket]"
                );
                return;
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    gblas_bench::configure(gblas_dist::RunConfig::from_env());
    println!("# chapel-graphblas-rs figure harness");
    println!("# scale = {scale} (paper sizes divided by this)");
    println!("# spmspv merge = {}", opts.merge.name());
    let tracing = trace_out.as_ref().map(|_| gblas_bench::figs::enable_tracing());
    for n in figs {
        if n == 6 {
            println!(
                "\n=== fig06 — SPA diagram (Fig 6): illustrative only, nothing to measure ==="
            );
            continue;
        }
        let t0 = std::time::Instant::now();
        for fig in run_fig_with(n, scale, opts) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# fig {n} regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if ablations {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::figs::fig_ablations(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# ablations regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if algorithms {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::figs::fig_algorithms(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# algorithms sweep regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if imbalance {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::figs::fig_imbalance(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# imbalance sweep regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if serving {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::serve::fig_serving(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# serving sweep regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if direction {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::figs::fig_direction(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# direction sweep regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if overlap {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::figs::fig_overlap(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# overlap sweep regenerated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if spgemm {
        let t0 = std::time::Instant::now();
        for fig in gblas_bench::figs::fig_spgemm(scale) {
            fig.print();
            match fig.write_csv(&out) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("(csv write failed: {e})"),
            }
        }
        eprintln!("# spgemm sweep regenerated in {:.1}s", t0.elapsed().as_secs_f64());
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
