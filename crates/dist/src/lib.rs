//! # gblas-dist — simulated distributed-memory GraphBLAS
//!
//! The paper's distributed substrate is Chapel's 2-D block-distributed
//! sparse arrays over *locales* (§II-B): locales are arranged in a `pr×pc`
//! grid, array indices are partitioned "evenly" across them, and each
//! locale holds a non-distributed local block (`LocSparseBlockDom` /
//! `LocSparseBlockArr`). This crate rebuilds that substrate in Rust:
//!
//! * [`grid::ProcGrid`] / [`grid::BlockDist`] — the locale grid and the
//!   contiguous block partition of index ranges;
//! * [`vec::DistSparseVec`] / [`mat::DistCsrMatrix`] — distributed sparse
//!   vectors (one block per locale, row-major locale order) and matrices
//!   (one CSR block per grid cell), physically partitioned into per-locale
//!   shards exactly as Chapel's Block distribution would;
//! * [`comm::Comm`] — the instrumented communication layer: every remote
//!   read/write performs the real copy *and* logs `(phase, src, dst,
//!   fine|bulk, messages, bytes)`; `gblas_sim::NetworkModel` prices the log.
//!   Fault injection hooks allow testing failure propagation;
//! * [`exec::DistCtx`] — per-op execution context: runs one task per
//!   locale (Chapel's `coforall loc in Locales do on loc`), collects
//!   per-locale work profiles, and combines compute and communication into
//!   a phase-structured [`gblas_sim::SimReport`] using the
//!   bulk-synchronous rule *superstep time = max over locales*;
//! * [`ops`] — the paper's four operations, each in the two versions the
//!   paper contrasts (fine-grained "version 1" vs SPMD "version 2"), plus
//!   the distributed SpMSpV of Listing 8 (gather along the processor row,
//!   local multiply, scatter across processor columns).
//!
//! Everything *functional* is real — results are asserted equal to the
//! shared-memory reference in the test suite at every grid shape — while
//! *time* is simulated (see `gblas-sim` for the calibration discipline).
//!
//! ```
//! use gblas_core::gen;
//! use gblas_dist::{DistCsrMatrix, DistCtx, DistSparseVec, ProcGrid};
//! use gblas_dist::ops::spmspv::spmspv_dist;
//! use gblas_sim::MachineConfig;
//!
//! // distribute a 1000-vertex graph over a simulated 2x2 Edison cluster
//! let a = gen::erdos_renyi(1000, 8, 7);
//! let x = gen::random_sparse_vec(1000, 30, 8);
//! let grid = ProcGrid::new(2, 2);
//! let da = DistCsrMatrix::from_global(&a, grid);
//! let dx = DistSparseVec::from_global(&x, grid.locales());
//! let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
//! let (y, report) = spmspv_dist(&da, &dx, &dctx).unwrap();
//! assert!(y.nnz() > 0);
//! // the Fig 8 components:
//! assert!(report.phase("gather") + report.phase("local") + report.phase("scatter") > 0.0);
//! ```

pub mod backend;
pub mod comm;
pub mod config;
pub mod dcsc;
pub mod exec;
pub mod grid;
pub mod mat;
pub mod ops;
pub mod sched;
pub mod vec;

pub use backend::DistBackend;
pub use comm::Comm;
pub use config::RunConfig;
pub use dcsc::{BlockFormat, DcscBlock};
pub use exec::{DistCtx, LocaleExecutor, Outbox};
pub use grid::{BlockDist, ProcGrid};
pub use mat::DistCsrMatrix;
pub use ops::mxm::{auto_layers, MxmAlgo};
pub use sched::{
    CommSchedule, FrontierClass, PlanData, SchedKey, SchedOutcome, ScheduleCache, SummaPlan,
};
pub use vec::{DistDenseVec, DistSparseVec};
