//! GraphBLAS operations.
//!
//! The paper's subset (§III) with both implementations wherever the paper
//! contrasts two, plus the remaining standard operations a GraphBLAS user
//! needs:
//!
//! | paper op | module | versions |
//! |---|---|---|
//! | `Apply` | [`apply`] | v1 flat `forall` / v2 per-chunk (Listings 2–3) |
//! | `Assign` | [`assign`] | v1 index-at-a-time / v2 bulk (Listings 4–5) |
//! | `eWiseMult` | [`ewise`] | atomic compaction / thread-private + prefix sum (Listing 6 and its suggested improvement) |
//! | `SpMSpV` | [`spmspv`] | first-visitor (Listing 7) / general semiring; merge or radix sort |
//! | — | [`spmv`], [`mxm`], [`reduce`], [`transpose`], [`extract`], [`select`] | the rest of the GraphBLAS surface |
//!
//! Every operation takes an [`crate::par::ExecCtx`] and records phase-tagged
//! [`crate::par::Counters`] describing the work it really performed; the
//! simulator prices those counters to regenerate the paper's figures.

pub mod apply;
pub mod assign;
pub mod ewise;
pub mod ewise_mat;
pub mod expand;
pub mod extract;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod select;
pub mod selection;
pub mod spmspv;
pub mod spmv;
pub mod transpose;
