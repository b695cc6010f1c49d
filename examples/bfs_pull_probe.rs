//! Direction-optimizing BFS over the kept in-neighbour lists versus the
//! explicit push, on the benchmark's `bfs` input: R-MAT scale 18, edge
//! factor 16, the same 16 sources (vertices with an out-edge, drawn by
//! SplitMix64 from `seed ^ 0xB5F5`), two threads.
//!
//! Prints, per clock, `bfs` (`Auto`, lists already built) over
//! `bfs_with` (push only): the wall clock as the sum of each source's
//! fastest of `--rounds` solves, the simulated clock as the Edison cost
//! model's price of one solve's work profile per source. The lists' one
//! build is reported on both clocks beside them.
//!
//! ```text
//! cargo run --release --example bfs_pull_probe -- [--seed S] [--scale K] [--rounds R]
//! ```

use gblas::prelude::*;
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_graph::{bfs, bfs_with};
use gblas_sim::CostModel;
use std::time::Instant;

const THREADS: usize = 2;
const SOURCES: usize = 16;

/// The benchmark's source generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn sources(a: &CsrMatrix<f64>, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ 0xB5F5);
    let mut out = Vec::with_capacity(SOURCES);
    while out.len() < SOURCES {
        let v = rng.below(a.nrows());
        if a.row_nnz(v) > 0 && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Simulated seconds of the work `ctx` recorded since the last call.
fn simulated(ctx: &ExecCtx) -> f64 {
    CostModel::edison().profile_time(&ctx.take_profile(), THREADS).total()
}

fn main() -> Result<()> {
    let (mut seed, mut scale, mut rounds) = (20170529u64, 18u32, 5usize);
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let value = || pair.get(1).and_then(|v| v.parse::<u64>().ok()).expect("a number");
        match pair[0].as_str() {
            "--seed" => seed = value(),
            "--scale" => scale = value() as u32,
            "--rounds" => rounds = value().max(1) as usize,
            other => panic!("unknown argument {other}"),
        }
    }
    let a = gen::rmat(scale, 16, seed);
    let sources = sources(&a, seed);
    let ctx = ExecCtx::new(THREADS, THREADS);
    println!("rmat:{scale}:16 seed {seed}: {} vertices, {} edges", a.nrows(), a.nnz());

    let t = Instant::now();
    let _ = a.in_neighbours(&ctx).expect("fewer than 2^32 rows");
    let (build_wall, build_sim) = (t.elapsed().as_secs_f64(), simulated(&ctx));

    let push = |s| bfs_with(&a, s, SpMSpVOpts::default(), &ctx);
    let auto = |s| bfs(&a, s, &ctx);
    let (mut push_wall, mut auto_wall) = (vec![f64::MAX; SOURCES], vec![f64::MAX; SOURCES]);
    let (mut push_sim, mut auto_sim) = (0.0, 0.0);
    for round in 0..rounds {
        for (k, &s) in sources.iter().enumerate() {
            let t = Instant::now();
            let pushed = push(s)?;
            push_wall[k] = push_wall[k].min(t.elapsed().as_secs_f64());
            let pushed_sim = simulated(&ctx);
            let t = Instant::now();
            let pulled = auto(s)?;
            auto_wall[k] = auto_wall[k].min(t.elapsed().as_secs_f64());
            let pulled_sim = simulated(&ctx);
            assert_eq!(pushed, pulled, "source {s}: the directions must agree");
            if round == 0 {
                push_sim += pushed_sim;
                auto_sim += pulled_sim;
            }
        }
    }
    let (push_wall, auto_wall): (f64, f64) = (push_wall.iter().sum(), auto_wall.iter().sum());
    println!("clock      push (s)   auto (s)  auto/push   list build (s)");
    println!(
        "wall     {push_wall:>9.4}  {auto_wall:>9.4}  {:>9.3}   {build_wall:.4}",
        auto_wall / push_wall
    );
    println!(
        "sim      {push_sim:>9.4}  {auto_sim:>9.4}  {:>9.3}   {build_sim:.4}",
        auto_sim / push_sim
    );
    Ok(())
}
