//! # gblas-core — shared-memory GraphBLAS core
//!
//! This crate is the shared-memory heart of `chapel-graphblas-rs`, a Rust
//! reproduction of *"Towards a GraphBLAS Library in Chapel"* (Azad & Buluç,
//! IPDPS Workshops 2017). It provides:
//!
//! * **Algebra** ([`algebra`]): unary/binary operators, monoids and
//!   semirings, with the standard GraphBLAS instances (plus-times, min-plus,
//!   or-and, first/second, …).
//! * **Containers** ([`container`]): Chapel-style sparse vectors (sorted
//!   index set + values), dense vectors, CSR matrices (sorted column ids per
//!   row, exactly the layout §II-A of the paper describes) and a COO builder.
//! * **Operations** ([`ops`]): the paper's subset — `Apply`, `Assign`,
//!   `eWiseMult`, `SpMSpV` — each with the *two* implementations the paper
//!   contrasts (a naive "version 1" exercising fine-grained element access
//!   and an SPMD-style "version 2" that manipulates the low-level arrays
//!   directly), plus the rest of a useful GraphBLAS surface: `eWiseAdd`,
//!   `SpMV`, `MxM` (SpGEMM), `reduce`, `transpose`, `extract`, `select`.
//! * **Masks** ([`mask`]): structural/value masks with complement and
//!   replace semantics — the paper's §V "future work", implemented here.
//! * **Instrumented parallel runtime** ([`par`]): a fork-join executor with
//!   an explicit thread count that additionally records [`par::Counters`]
//!   (elements streamed, binary-search probes, atomic RMWs, sort work, SPA
//!   touches, tasks spawned). The `gblas-sim` crate prices those counters
//!   with a calibrated cost model of the paper's Cray XC30 platform so that
//!   the paper's figures can be regenerated on any machine.
//! * **Tracing & metrics** ([`trace`]): an opt-in span recorder on the
//!   simulated clock (operation → phase → per-locale segment) with Chrome
//!   trace-event / JSONL / summary exporters, plus an always-on registry of
//!   cumulative atomic metrics. Disabled recorders are free: one branch per
//!   call, no locks on the hot path.
//! * **Workspace pooling** ([`workspace`]): a per-context pool of
//!   generation-stamped SPAs, staging vectors and bucket/outbox scratch,
//!   checked out via RAII guards so iterative algorithms allocate on their
//!   first iteration and then run allocation-free (`set_enabled(false)`
//!   restores per-call allocation; `pool_hits`/`pool_misses`/`allocs`/
//!   `alloc_bytes` metrics make the reuse observable).
//! * **Workload generators** ([`gen`]): seeded Erdős–Rényi matrices
//!   `G(n, d/n)` and random sparse/dense vectors, matching §II-A.
//!
//! ## Quick start
//!
//! ```
//! use gblas_core::container::{CsrMatrix, SparseVec};
//! use gblas_core::ops::spmspv::spmspv_semiring;
//! use gblas_core::algebra::semirings;
//! use gblas_core::par::ExecCtx;
//!
//! // A tiny 4x4 matrix: edges of a directed path 0 -> 1 -> 2 -> 3.
//! let a = CsrMatrix::<f64>::from_triplets(4, 4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
//! // A sparse "frontier" holding vertex 0.
//! let x = SparseVec::from_sorted(4, vec![0], vec![1.0]).unwrap();
//! let ctx = ExecCtx::serial();
//! let out = spmspv_semiring(&a, &x, &semirings::plus_times_f64(), &ctx).unwrap();
//! assert_eq!(out.indices(), &[1]); // one step of BFS reaches vertex 1
//! ```

pub mod algebra;
pub mod api;
pub mod backend;
pub mod container;
pub mod error;
pub mod gen;
pub mod io;
pub mod mask;
pub mod ops;
pub mod par;
pub mod sort;
pub mod spa;
pub mod trace;
pub mod workspace;

pub use backend::{GblasBackend, MaskSpec, SharedBackend};
pub use error::{GblasError, Result};
pub use workspace::{WorkspacePool, WorkspaceStats, WsGuard};
