//! # gblas-bench — regenerating every figure of the paper
//!
//! The paper's evaluation is Figures 1–10 (Figure 6 is a diagram). For
//! each figure this crate provides a generator producing the same series
//! the paper plots — thread/node sweeps with per-component breakdowns —
//! over the same workloads (Erdős–Rényi matrices and random vectors at
//! the paper's sizes), priced by the calibrated Edison model in
//! `gblas-sim`.
//!
//! * `cargo run -p gblas-bench --release --bin figures -- --fig all`
//!   regenerates everything, printing paper-style rows and writing
//!   `results/figNN.csv`; `--fig ablations` sweeps the design choices
//!   the paper suggests (radix vs merge sort, atomic vs prefix
//!   compaction, fine-grained vs bulk communication).
//!
//! `--scale S` divides the large input sizes by `S` for quick runs on
//! small machines; the simulated-time *shapes* are scale-free because the
//! cost model is linear in the counters.

pub mod figs;
pub mod output;
pub mod serve;
pub mod workloads;

pub use output::{FigPoint, Figure, Series};

use gblas_dist::RunConfig;
use std::sync::OnceLock;

static CONFIG: OnceLock<RunConfig> = OnceLock::new();

/// Install the configuration a binary resolved in its `main`
/// ([`RunConfig::from_env`]): every context the
/// harness builds afterwards runs under it. The first call wins; without
/// one the harness runs under [`RunConfig::default`].
pub fn configure(cfg: RunConfig) {
    CONFIG.get_or_init(|| cfg);
}

/// The configuration [`configure`] installed, or the defaults.
pub fn run_config() -> RunConfig {
    CONFIG.get().copied().unwrap_or_default()
}

/// Thread counts of the shared-memory sweeps (the paper's x-axis).
pub const THREADS: &[usize] = &[1, 2, 4, 8, 16, 32];
/// Node counts of the distributed sweeps.
pub const NODES: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
