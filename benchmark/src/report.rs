//! Command line, result printing, and the all-workloads parent process —
//! shared by the untraced and the traced binary.

use crate::e2e::{Config, Outcome};
use crate::names::{Better, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The seed used when `--seed` is not given (the paper's workshop date).
pub const DEFAULT_SEED: u64 = 20170529;
/// Seconds a `--quick` run measures when `--seconds` is not given.
const QUICK_SECONDS: f64 = 1.5;

#[derive(Debug, Clone)]
pub struct Args {
    /// A workload name, or `all`.
    pub workload: String,
    pub cfg: Config,
    pub trace: bool,
    /// The benchmark's own directory (`out/` and `results/` live there).
    pub bench_dir: PathBuf,
    /// Path of the built `gblas-cli`, for the traced run's CLI layer.
    pub cli_bin: Option<PathBuf>,
    pub print_benchmark_json: bool,
}

pub const USAGE: &str = "usage: --workload <bfs|pagerank|triangles|mcl|all> [--seed N] \
[--seconds S] [--trace 0|1] [--quick] [--bench-dir DIR] [--cli-bin PATH] \
[--print-benchmark-json]";

pub fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        cfg: Config { seed: DEFAULT_SEED, seconds: 0.0, quick: false },
        trace: false,
        bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        cli_bin: None,
        print_benchmark_json: false,
    };
    let mut seconds = None;
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.cfg.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.cfg.quick = true,
            "--bench-dir" => args.bench_dir = PathBuf::from(value()?),
            "--cli-bin" => args.cli_bin = Some(PathBuf::from(value()?)),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    args.cfg.seconds =
        seconds.unwrap_or(if args.cfg.quick { QUICK_SECONDS } else { RUN_SECONDS as f64 });
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.0 == args.workload);
    if !args.print_benchmark_json && !known {
        return Err(format!("unknown or missing --workload {:?}\n{USAGE}", args.workload));
    }
    Ok(args)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn result_line(outcome: &Outcome, unit_of: impl Fn(&str) -> &'static str) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Print one workload's outcome: the notes and one line per metric for a
/// reader, then the result line. Returns the process exit code.
pub fn print_outcome(
    outcome: &Outcome,
    catalogue: &[(&'static str, &'static str, Better)],
) -> Result<i32, String> {
    let entry = |name: &str| catalogue.iter().find(|m| m.0 == name);
    for (name, value) in &outcome.metrics {
        if entry(name).is_none() {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
    }
    if let Some(missing) =
        catalogue.iter().find(|m| !outcome.metrics.iter().any(|(name, _)| *name == m.0))
    {
        return Err(format!("metric {} was not measured", missing.0));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value) in &outcome.metrics {
        let (_, unit, better) = entry(name).expect("checked above");
        println!("{name:<44} {value:>16.6} {unit:<8} ({} is better)", better.as_str());
    }
    println!("{}", result_line(outcome, |name| entry(name).expect("checked above").1));
    Ok(if outcome.correct() { 0 } else { 1 })
}

/// `(name, value, unit)` of every metric in a result line this program
/// printed.
pub fn metrics_of(result_line: &str) -> Vec<(String, f64, String)> {
    let Some((_, body)) = result_line.split_once("\"metrics\": {") else { return Vec::new() };
    body.split("\"}")
        .filter_map(|item| {
            let (name, rest) = item.split_once("\": {\"value\": ")?;
            let name = name.rsplit('"').next()?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect()
}

/// `--workload all`: one child process per workload (so each reports its
/// own peak memory), their output passed through, then a table of every
/// metric by workload. Exits non-zero if any child did.
pub fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // One column of `(name, value, unit)` per workload, in catalogue order.
    let mut columns = Vec::with_capacity(WORKLOADS.len());
    let mut code = 0;
    for (workload, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--bench-dir")
            .arg(&args.bench_dir);
        if args.cfg.quick {
            cmd.arg("--quick");
        }
        if let Some(cli) = &args.cli_bin {
            cmd.arg("--cli-bin").arg(cli);
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprintln!("workload {workload} exited with {}", out.status);
            code = 1;
        }
        columns.push(metrics_of(stdout.lines().last().unwrap_or("")));
    }
    println!();
    println!(
        "{:<44} {:<8} {}",
        "metric",
        "unit",
        WORKLOADS.map(|w| format!("{:>14}", w.0)).join("")
    );
    for (name, _, unit) in columns.first().into_iter().flatten() {
        let cells: String = columns
            .iter()
            .map(|metrics| {
                metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .map_or(format!("{:>14}", "-"), |m| format!("{:>14.6}", m.1))
            })
            .collect();
        println!("{name:<44} {unit:<8} {cells}");
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> impl Iterator<Item = String> {
        std::iter::once("prog")
            .chain(words.iter().copied())
            .map(String::from)
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(argv(&[
            "--workload",
            "bfs",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.cfg.seed, a.cfg.seconds, a.trace),
            ("bfs", 7, 10.0, true)
        );
        let quick = parse_args(argv(&["--workload", "all", "--quick"])).unwrap();
        assert!(quick.cfg.quick && quick.cfg.seconds < 5.0 && quick.cfg.seed == DEFAULT_SEED);
        assert!(parse_args(argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(argv(&["--workload", "bfs", "--trace", "2"])).is_err());
        assert!(parse_args(argv(&["--workload", "bfs", "--seconds", "0"])).is_err());
        assert!(parse_args(argv(&[])).is_err());
    }

    #[test]
    fn a_result_line_reads_back() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![("solve_s_p50", 0.0421337), ("peak_rss_mb", 412.5)],
            notes: Vec::new(),
        };
        let line = result_line(&outcome, |n| if n == "solve_s_p50" { "s" } else { "MiB" });
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert_eq!(
            metrics_of(&line),
            vec![
                ("solve_s_p50".to_string(), 0.0421337, "s".to_string()),
                ("peak_rss_mb".to_string(), 412.5, "MiB".to_string())
            ]
        );
    }
}
