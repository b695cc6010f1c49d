//! Two-clock (wall / simulated) benchmark of the gblas workspace.
//!
//! See `benchmark/README.md` for what is measured and why. Everything
//! that calls the library is in [`surface`]; everything the answers are
//! checked against is in [`oracle`].

pub mod e2e;
pub mod ledger;
pub mod names;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod surface;
pub mod two_clock;
pub mod workloads;
