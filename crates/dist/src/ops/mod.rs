//! Distributed GraphBLAS operations.
//!
//! Each operation returns its functional result *and* a
//! [`gblas_sim::SimReport`] of simulated phase times for the machine held
//! by the [`crate::DistCtx`]. The version-1/version-2 pairs reproduce the
//! paper's contrast between Chapel's convenient-but-slow data-parallel
//! style and the SPMD style the authors adopt:
//!
//! | op | v1 (fine-grained) | v2 (SPMD/local) | figures |
//! |---|---|---|---|
//! | Apply | [`apply::apply_v1`] | [`apply::apply_v2`] | Fig 1 |
//! | Assign | [`assign::assign_v1`] | [`assign::assign_v2`] | Figs 2, 3, 10 |
//! | eWiseMult | — (local by construction) | [`ewise::ewise_mult_dist`] | Fig 5 |
//! | SpMSpV | [`spmspv::spmspv_dist`] (fine-grained gather/scatter, Listing 8) | [`spmspv::spmspv_dist_bulk`] (aggregated, §IV's suggested fix) | Figs 8, 9 |
//!
//! Beyond the paper's subset, the crate also ships the distributed
//! operations a complete library needs, all bulk-synchronous:
//! [`spmspv::spmspv_dist_with`] (masks in distributed memory, §V) and
//! [`spmspv::spmspv_dist_semiring_with`] (general accumulation), [`spmv`]
//! (dense vectors), [`mxm`] (sparse SUMMA SpGEMM), [`transpose`]
//! (mirror-block exchange), and [`reduce`] (binomial-tree all-reduce).
//!
//! The vector-product kernels are two bodies with the batch width `k` as
//! a parameter: every sparse-frontier entry point (and the backend trait's
//! push) runs the one push in [`spmspv`], and [`spmv::spmv_dist`] and the
//! trait's SpMV the one dense SpMV in [`spmv`]. A batch of `k` frontiers is
//! a slice of `k` distributed vectors, the operand of the backend trait's
//! `spmspv` and `spmv`.

pub mod apply;
pub mod assign;
pub mod ewise;
pub mod mxm;
pub mod pull;
pub mod reduce;
pub mod select;
pub mod spmspv;
pub mod spmv;
pub mod transpose;
