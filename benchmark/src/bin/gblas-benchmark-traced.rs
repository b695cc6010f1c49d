//! The traced benchmark: the per-layer ledger of one workload (or, with
//! `--workload all`, of each in a process of its own, then
//! `results/two_clock.md`). This program — and only this one — installs a
//! counting allocator; it counts only while the ledger asks it to.

use gblas_benchmark::e2e::{Config, Outcome};
use gblas_benchmark::ledger::{self, AllocProbe, TraceEnv};
use gblas_benchmark::names;
use gblas_benchmark::report::{self, Args};
use gblas_benchmark::workloads::{Bfs, Mcl, Pagerank, Triangles};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], tallying calls and bytes while enabled.
struct CountingAlloc;

// Statistics only: nothing is published through these, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments to `System` unchanged and
// returns what `System` returns; the counters never influence allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ALLOC_PROBE: AllocProbe = AllocProbe {
    set_enabled: |on| COUNTING.store(on, Ordering::Relaxed),
    counts: || (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed)),
};

fn run_one(workload: &str, cfg: &Config, env: &TraceEnv) -> Result<Outcome, String> {
    match workload {
        "bfs" => ledger::run::<Bfs>(cfg, env),
        "pagerank" => ledger::run::<Pagerank>(cfg, env),
        "triangles" => ledger::run::<Triangles>(cfg, env),
        "mcl" => ledger::run::<Mcl>(cfg, env),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: &Args) -> Result<i32, String> {
    if !args.trace {
        return Err("--trace 0 is the untraced binary's job (gblas-benchmark)".into());
    }
    if args.workload == "all" {
        let code = report::run_all(args)?;
        if code == 0 {
            ledger::write_two_clock_report(&args.bench_dir)?;
        }
        return Ok(code);
    }
    let env = TraceEnv {
        bench_dir: args.bench_dir.clone(),
        cli_bin: args.cli_bin.clone(),
        alloc: ALLOC_PROBE,
    };
    let outcome = run_one(&args.workload, &args.cfg, &env)?;
    report::print_outcome(&outcome, &names::PER_LAYER)
}

fn main() {
    let code =
        report::parse_args(std::env::args()).and_then(|args| run(&args)).unwrap_or_else(|e| {
            eprintln!("gblas-benchmark-traced: {e}");
            2
        });
    std::process::exit(code);
}
