//! The untraced benchmark: end-to-end metrics of one workload (or, with
//! `--workload all`, of each in a process of its own). No counting
//! allocator and no span recorder are linked into this program.

use gblas_benchmark::e2e::{self, Config, Outcome};
use gblas_benchmark::names::{self, Better};
use gblas_benchmark::report::{self, Args};
use gblas_benchmark::workloads::{Bfs, Mcl, Pagerank, Triangles};

fn run_one(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "bfs" => e2e::run::<Bfs>(cfg),
        "pagerank" => e2e::run::<Pagerank>(cfg),
        "triangles" => e2e::run::<Triangles>(cfg),
        "mcl" => e2e::run::<Mcl>(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: &Args) -> Result<i32, String> {
    if args.print_benchmark_json {
        names::validate_catalogue()?;
        print!("{}", names::benchmark_json());
        return Ok(0);
    }
    if args.trace {
        return Err("--trace 1 is the traced binary's job (gblas-benchmark-traced)".into());
    }
    if args.workload == "all" {
        return report::run_all(args);
    }
    let outcome = run_one(&args.workload, &args.cfg)?;
    let catalogue: Vec<(&str, &str, Better)> =
        names::END_TO_END.iter().map(|m| (m.0, m.1, m.2)).collect();
    report::print_outcome(&outcome, &catalogue)
}

fn main() {
    let code =
        report::parse_args(std::env::args()).and_then(|args| run(&args)).unwrap_or_else(|e| {
            eprintln!("gblas-benchmark: {e}");
            2
        });
    std::process::exit(code);
}
