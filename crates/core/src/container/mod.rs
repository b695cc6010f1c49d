//! Sparse and dense containers in the layout the paper uses (§II-A).
//!
//! * [`SparseVec`] — "the indices of sparse vectors are kept sorted and
//!   stored in an array"; `O(nnz)` space, binary-search random access.
//! * [`DenseVec`] — a plain dense array (the `y` operand of the paper's
//!   sparse×dense `eWiseMult`, SPA backing storage, BFS level arrays).
//! * [`CsrMatrix`] — Compressed Sparse Rows with column ids sorted within
//!   each row, "because this is supported in Chapel"; it keeps its
//!   [`InNeighbours`] (the pattern of `Aᵀ`) once a pull has asked.
//! * [`CooMatrix`] — a triplet builder for assembling matrices before
//!   conversion to CSR.
//! * [`SparseFrontier`] — the CombBLAS-2.0-style `n×k` multi-source
//!   frontier: `k` sparse vectors over one index space, one per source
//!   in a batched traversal.

mod coo;
mod csr;
mod dense_vec;
mod frontier;
mod sparse_vec;

pub use coo::{CooMatrix, DupPolicy};
pub use csr::{CsrMatrix, InNeighbours};
pub use dense_vec::DenseVec;
pub use frontier::SparseFrontier;
pub use sparse_vec::SparseVec;
