//! Distributed SpGEMM: `C = A ⊗ B` by multi-stage sparse SUMMA.
//!
//! The paper cites the 2-D sparse SUMMA algorithm for matrix-matrix
//! multiply and general indexing \[8\] (Buluç & Gilbert) as the natural
//! companion to its block distribution. Stationary-C formulation: in
//! stage `s` covering the inner-dimension interval `[lo, hi)`, the owners
//! of `A`'s covering column-block broadcast that interval's *column
//! slice* along their grid row, the owners of `B`'s covering row-block
//! broadcast the interval's *row slice* down their grid column, every
//! locale multiplies the received pair locally and accumulates into its
//! stationary `C` block with an element-wise add.
//!
//! Three algorithm variants ([`MxmAlgo`]):
//!
//! * **`Single`** — the legacy single-stage-per-block SUMMA: whole CSR
//!   blocks are broadcast (row pointers included), one stage per grid
//!   column, each multiplied by shared-memory `mxm`. Requires a square
//!   grid; kept as the measured baseline.
//! * **`Summa2d`** — multi-stage DCSC SUMMA on arbitrary rectangular
//!   `pr×pc` grids. The stage bounds are the sorted union of `A`'s column
//!   split and `B`'s row split ([`SummaPlan`]), so no `lcm`-sized
//!   re-blocking is needed; broadcasts carry doubly compressed slices
//!   ([`crate::dcsc`]) whose wire bytes scale with the slice's nonzeros,
//!   not the block side — the hypersparsity win. Each block pair's local
//!   multiply picks a density-adaptive instance of the one row kernel
//!   ([`RowKernel`]: heap merge / hash table / dense SPA) via
//!   [`gblas_core::ops::selection::decide_mxm_kernel`].
//! * **`Summa3d`** — the communication-avoiding 3-D variant: the machine
//!   is split into `c` replication layers of `p` locales each, stages are
//!   dealt round-robin to layers, operand blocks are replicated to the
//!   layer that consumes them (priced point-to-point), and the layers'
//!   partial `C` blocks are merged by a binomial-tree allreduce. Fewer,
//!   larger blocks per layer mean smaller broadcast fan-out; the price is
//!   the `log₂ c` merge rounds over the (sparse) partial products.
//!
//! All variants produce identical results: every kernel instance
//! accumulates each output position in ascending inner-dimension order,
//! so integer-semiring products are bit-identical across variants, grid
//! shapes, and executors (floating-point products agree to rounding, as
//! the stage grouping associates the sums differently).

use crate::dcsc::{self, choose_format, BlockFormat, ColSlice, DcscBlock};
use crate::exec::DistCtx;
use crate::grid::ProcGrid;
use crate::mat::DistCsrMatrix;
use crate::sched::{fingerprint_indices, FrontierClass, PlanData, SummaPlan};
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::CsrMatrix;
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::ops::mxm::{NoRule, RowKernel};
use gblas_core::ops::selection::{decide_mxm_kernel, MxmKernel};
use gblas_core::par::{Counters, ExecCtx, Profile};
use gblas_sim::SimReport;
use std::collections::BTreeSet;
use std::ops::Range;

/// Phase: slice/block broadcasts.
pub const PHASE_BCAST: &str = "broadcast";
/// Phase: local multiplies + accumulation.
pub const PHASE_LOCAL: &str = "local";
/// Phase: DCSC conversion and stage-slice extraction on the owners.
pub const PHASE_EXTRACT: &str = "extract";
/// Phase: operand block replication to 3-D layers.
pub const PHASE_REPLICATE: &str = "replicate";
/// Phase: binomial allreduce merging the layers' partial `C` blocks.
pub const PHASE_MERGE: &str = "allreduce";

/// Which SUMMA variant a distributed multiply runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmAlgo {
    /// Legacy single-stage-per-block broadcast SUMMA (square grids only),
    /// full CSR blocks on the wire. The measured baseline.
    Single,
    /// Multi-stage DCSC SUMMA on rectangular grids (the default).
    #[default]
    Summa2d,
    /// Communication-avoiding 3-D SUMMA with `layers` replication layers
    /// (`layers = 0` derives the layer count from the machine:
    /// `dctx.locales() / grid.locales()`).
    Summa3d {
        /// Replication layer count; 0 = derive from the machine size.
        layers: usize,
    },
}

impl MxmAlgo {
    /// Stable lowercase name (trace attributes, figure series).
    pub fn name(self) -> &'static str {
        match self {
            MxmAlgo::Single => "single",
            MxmAlgo::Summa2d => "summa2d",
            MxmAlgo::Summa3d { .. } => "summa3d",
        }
    }

    /// Parse the CLI spelling (`single` | `2d` | `3d`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "single" => Some(MxmAlgo::Single),
            "2d" => Some(MxmAlgo::Summa2d),
            "3d" => Some(MxmAlgo::Summa3d { layers: 0 }),
            _ => None,
        }
    }
}

/// Replication layer count for a machine of `total` locales: the largest
/// power of two `c` with `c³ ≤ total` that divides `total` — the classic
/// `c ≤ ∛p` bound that keeps the allreduce from dominating.
pub fn auto_layers(total: usize) -> usize {
    let mut best = 1;
    let mut cand = 2usize;
    while cand.saturating_mul(cand).saturating_mul(cand) <= total {
        if total.is_multiple_of(cand) {
            best = cand;
        }
        cand *= 2;
    }
    best
}

/// `C = A ⊗ B` over `ring` with both operands on the same grid
/// (multi-stage DCSC SUMMA, the default variant).
pub fn mxm_dist<T, AddM, MulOp>(
    a: &DistCsrMatrix<T>,
    b: &DistCsrMatrix<T>,
    ring: &Semiring<AddM, MulOp>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<T>, SimReport)>
where
    T: Copy + Send + Sync + PartialEq + 'static,
    AddM: Monoid<T>,
    MulOp: BinaryOp<T, T, T>,
{
    mxm_dist_masked::<T, T, T, AddM, MulOp, bool>(a, b, ring, None, dctx)
}

/// Masked, mixed-type multi-stage SUMMA: `C⟨M⟩ = A ⊗ B` (default
/// variant). See [`mxm_dist_masked_with`] for the variant-selecting form.
pub fn mxm_dist_masked<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    mxm_dist_masked_with(a, b, ring, mask, MxmAlgo::default(), dctx)
}

/// Masked, mixed-type sparse SUMMA with an explicit algorithm variant:
/// [`mxm_dist_emit`] without a rule.
pub fn mxm_dist_masked_with<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    algo: MxmAlgo,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    mxm_dist_emit(a, b, ring, mask, None::<&NoRule<C>>, algo, dctx)
}

/// Masked, mixed-type sparse SUMMA with an explicit algorithm variant and
/// an optional emit rule: `C⟨M⟩ = rule(A ⊗ B)`.
///
/// The mask is structural and distributed on the *same grid* as the
/// stationary `C` blocks, so each stage applies its locale's mask block to
/// the local multiply — masking commutes with the stage-wise element-wise
/// accumulation (`(Σ Pₖ) ∩ M = Σ (Pₖ ∩ M)`), and suppressed entries never
/// enter a stationary block. This is what masked distributed triangle
/// counting (`C⟨L⟩ = L · Lᵀ`) needs.
///
/// The rule (global coordinates; see
/// [`gblas_core::ops::mxm::mxm_emit`]) does *not* commute with the
/// accumulation — a stage's partial sum is not a finished entry — so each
/// locale applies it once, in place, to its stationary block after the
/// last accumulate into it (after the merge rounds on a 3-D run): one
/// `elems` per entry under the `local` phase, no superstep or spawn of its
/// own. Without a rule nothing is done or charged.
pub fn mxm_dist_emit<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    algo: MxmAlgo,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    let same_grid = |what: &str, other: ProcGrid| {
        check_dims(&format!("{what} grid rows"), grid.pr(), other.pr())?;
        check_dims(&format!("{what} grid columns"), grid.pc(), other.pc())
    };
    same_grid("B", b.grid())?;
    check_dims("inner dimension", a.ncols(), b.nrows())?;
    if let Some(m) = mask {
        same_grid("mask", m.grid())?;
        check_dims("mask rows", a.nrows(), m.nrows())?;
        check_dims("mask columns", b.ncols(), m.ncols())?;
    }
    // The machine must hold exactly `grid × layers` locales (one layer
    // unless 3-D; `layers = 0` derives the count from the machine).
    let p = grid.locales();
    let layers = match algo {
        MxmAlgo::Summa3d { layers: 0 } => dctx.locales() / p,
        MxmAlgo::Summa3d { layers } => layers,
        MxmAlgo::Single | MxmAlgo::Summa2d => 1,
    };
    check_dims("machine locales (grid x layers)", p * layers, dctx.locales())?;
    if algo != MxmAlgo::Single {
        return summa_engine(a, b, ring, mask, rule, layers, dctx);
    }
    if grid.pr() != grid.pc() {
        return Err(GblasError::InvalidArgument(
            "single-stage SUMMA needs a square process grid".into(),
        ));
    }
    single_stage(a, b, ring, mask, rule, dctx)
}

/// The multi-stage engine shared by the 2-D (`layers == 1`) and 3-D
/// (`layers > 1`) variants. See the module docs for the structure.
#[allow(clippy::too_many_arguments)]
fn summa_engine<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    layers: usize,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    let p = grid.locales();
    let total = p * layers;
    let a_elem = std::mem::size_of::<A>();
    let b_elem = std::mem::size_of::<B>();

    // The stage plan is purely shape-derived (dimensions + grid), so
    // iterative callers replay it across fresh matrices of the same shape
    // — the generation stamp is unused (0) and the shapes fingerprint
    // gates reuse instead.
    let (plan_arc, sched_outcome) = dctx.schedule(
        "mxm_summa",
        FrontierClass::Mat,
        (grid.pr(), grid.pc()),
        0,
        fingerprint_indices(&[a.nrows(), a.ncols(), b.ncols()]),
        || PlanData::Summa(SummaPlan::build(a.ncols(), &a.col_dist(), &b.row_dist())),
    );
    let plan = plan_arc.summa();
    let stages = plan.stages();

    // Prepare superstep: every locale picks its A block's representation
    // (DCSC when hypersparse) and converts once; conversion work lands in
    // the extract phase. B blocks stay CSR — row slices are contiguous.
    let mut prep: Vec<(Option<DcscBlock<A>>, Profile)> =
        (0..p).map(|_| (None, Profile::default())).collect();
    dctx.for_each_locale_state(&mut prep, |l, (slot, prof)| {
        let blk = a.block(l);
        if choose_format(blk.nnz(), blk.nrows().max(blk.ncols())) == BlockFormat::Dcsc {
            let c = prof.counters_mut(PHASE_EXTRACT);
            c.elems += blk.nnz() as u64;
            c.sort_elems += (blk.nnz().max(1).ilog2() as u64 + 1) * blk.nnz() as u64;
            *slot = Some(DcscBlock::from_csr(blk));
        }
        Ok(())
    })?;
    let (a_dcsc, mut extract_profiles): (Vec<_>, Vec<_>) = prep.into_iter().unzip();
    extract_profiles.resize(total, Profile::default());

    // Driver-side kernel decisions, per (stage, grid position): pure
    // integer estimates from block structure, so every locale — and both
    // executors — agree without additional communication (the estimates
    // ride on the slice headers the broadcasts already carry).
    let mut decisions: Vec<Vec<MxmKernel>> = Vec::with_capacity(stages);
    let mut est_total: u64 = 0;
    let mut stage_cost: Vec<u64> = vec![0; stages];
    for (s, cost) in stage_cost.iter_mut().enumerate() {
        let (lo, hi) = plan.bounds[s];
        let w = hi - lo;
        let mut per_locale = Vec::with_capacity(p);
        for l in 0..p {
            let (r, c) = grid.coords(l);
            let a_blk = a.block(grid.locale(r, plan.ka[s]));
            let b_blk = b.block(grid.locale(plan.kb[s], c));
            let brange = b.row_dist().range(plan.kb[s]);
            let (blo, bhi) = (lo - brange.start, hi - brange.start);
            let b_nnz = b_blk.rowptr()[bhi] - b_blk.rowptr()[blo];
            let a_est = a_blk.nnz() * w / a_blk.ncols().max(1);
            let est_flops = a_est * b_nnz / w.max(1);
            let q_l = b.col_range(l).len();
            est_total += est_flops as u64;
            *cost = (*cost).max(est_flops as u64);
            per_locale.push(decide_mxm_kernel(est_flops, q_l));
        }
        decisions.push(per_locale);
    }

    // Stage -> layer assignment (3-D only): LPT greedy on the driver-side
    // critical-path estimates, heaviest stage to the least-loaded layer.
    // Round-robin dealing loses badly on skewed (RMAT) inputs, where hub
    // block-columns concentrate the flops in a few stages; balancing on
    // the same integer estimates the kernel selection already computes
    // keeps the layers' critical paths even — and stays deterministic
    // across executors and grid shapes.
    let stage_layer: Vec<usize> = {
        let mut order: Vec<usize> = (0..stages).collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(stage_cost[s]), s));
        let mut load = vec![0u64; layers];
        let mut assign = vec![0usize; stages];
        for s in order {
            let target = (0..layers).min_by_key(|&j| (load[j], j)).unwrap_or(0);
            assign[s] = target;
            load[target] += stage_cost[s].max(1);
        }
        assign
    };
    let chose = |k: MxmKernel| decisions.iter().flatten().filter(|&&d| d == k).count();
    let mut select_trace = dctx.op("select");
    select_trace
        .attr("algo", "mxm")
        .attr("stages", stages)
        .attr("heap", chose(MxmKernel::Heap))
        .attr("hash", chose(MxmKernel::Hash))
        .attr("spa", chose(MxmKernel::Spa))
        .nnz(est_total);
    let select_report = select_trace.finish();

    // 3-D replication: each operand block moves once to every layer > 0
    // that consumes one of its stages, point-to-point from its resident
    // locale to the layer counterpart. DCSC-converted blocks ship doubly
    // compressed.
    let mut moves: BTreeSet<(usize, usize, bool)> = BTreeSet::new(); // (base locale, layer, is_b)
    for (s, &layer) in stage_layer.iter().enumerate() {
        if layer == 0 {
            continue;
        }
        for r in 0..grid.pr() {
            moves.insert((grid.locale(r, plan.ka[s]), layer, false));
        }
        for c in 0..grid.pc() {
            moves.insert((grid.locale(plan.kb[s], c), layer, true));
        }
    }
    for &(base, layer, is_b) in &moves {
        let bytes = if is_b {
            let blk = b.block(base);
            dcsc::csr_wire_bytes(blk.nrows(), blk.nnz(), b_elem)
        } else {
            match &a_dcsc[base] {
                Some(d) => dcsc::dcsc_wire_bytes(d.nzc(), d.nnz(), a_elem),
                None => {
                    let blk = a.block(base);
                    dcsc::csr_wire_bytes(blk.nrows(), blk.nnz(), a_elem)
                }
            }
        };
        dctx.comm.bulk(PHASE_REPLICATE, base, layer * p + base, 1, bytes)?;
    }

    // Stationary C blocks (one per layer-locale), accumulated stage by
    // stage. Layer j's locale l holds the partial sum of its stage subset.
    let mut state = stationary::<A, B, C>(a, b, total);
    let origin = |l: usize| (a.row_range(l).start, b.col_range(l).start);

    // The whole stage pipeline runs inside ONE SPMD superstep: every
    // locale task loops its stages locally, with the per-stage exchange
    // expressed as owner-logged point-to-point sends. This is the
    // multi-stage engine's structural advantage over the legacy
    // single-stage baseline, which re-spawns a machine-wide superstep per
    // stage and pays the `locales × c_remote_task` coforall fan-out every
    // time — at 256 nodes that fan-out, not the wire, dominates its
    // broadcast phase.
    dctx.for_each_locale_state(&mut state, |g, (c_block, local_profile, bcast_profile)| {
        let l = g % p;
        for s in 0..stages {
            let layer = stage_layer[s];
            if g / p != layer {
                continue; // another layer's stage
            }
            let (lo, hi) = plan.bounds[s];
            let (ka, kb) = (plan.ka[s], plan.kb[s]);
            let a_cols = a.col_dist().range(ka);
            let b_rows = b.row_dist().range(kb);
            let (r, c) = grid.coords(l);
            let a_owner = grid.locale(r, ka);
            let b_owner = grid.locale(kb, c);
            let a_blk = a.block(a_owner);
            let b_blk = b.block(b_owner);
            // Extract the A column slice. Every receiver re-derives it
            // (simulating the received payload); only the owner charges
            // the extraction work (under the extract phase of its
            // phase-keyed local profile).
            let mut scratch = Counters::default();
            let extract = local_profile.counters_mut(PHASE_EXTRACT);
            let cnt = if l == a_owner { extract } else { &mut scratch };
            let (alo, ahi) = (lo - a_cols.start, hi - a_cols.start);
            let slice: ColSlice<A> = match &a_dcsc[a_owner] {
                Some(d) => d.col_slice(alo, ahi, cnt),
                None => dcsc::csr_col_slice(a_blk, alo, ahi, cnt),
            };
            // B's slice is the contiguous local row range [blo, bhi); the
            // owner charges the nonempty-row scan that sizes the payload.
            let (blo, bhi) = (lo - b_rows.start, hi - b_rows.start);
            let b_nnz = b_blk.rowptr()[bhi] - b_blk.rowptr()[blo];
            let b_nzr = (blo..bhi).filter(|&i| b_blk.rowptr()[i] < b_blk.rowptr()[i + 1]).count();
            if l == b_owner {
                local_profile.counters_mut(PHASE_EXTRACT).elems += (bhi - blo) as u64;
            }
            // Broadcasts: sends are logged by the *owner*'s task — one
            // writer per source keeps the comm log's per-src order
            // deterministic under the threaded executor. Empty slices
            // never hit the wire: DCSC's `jc` array answers "is this
            // k-range empty?" without touching a rowptr, so hypersparse
            // stages cost zero messages — the payoff the legacy full-CSR
            // baseline (which always ships `(rows+1)` pointer words)
            // cannot see.
            let a_bytes = if slice.nnz() == 0 {
                0
            } else {
                dcsc::slice_wire_bytes(slice.nzr(), slice.nnz(), a_elem)
            };
            let b_bytes = if b_nnz == 0 { 0 } else { dcsc::slice_wire_bytes(b_nzr, b_nnz, b_elem) };
            if l == a_owner && a_bytes > 0 {
                broadcast(dctx, layer * p, l, grid.row_locales(r), a_bytes)?;
            }
            if l == b_owner && b_bytes > 0 {
                broadcast(dctx, layer * p, l, grid.col_locales(c), b_bytes)?;
            }
            bcast_profile.counters_mut(PHASE_BCAST).bytes_moved += a_bytes + b_bytes;
            // Local multiply with the stage's density-adaptive kernel,
            // accumulated into the stationary block. The locale's mask
            // block covers exactly its stationary C block.
            if slice.nnz() > 0 && b_nnz > 0 {
                let lctx = dctx.locale_ctx_for(l);
                let (mask_l, kernel) = (mask.map(|m| m.block(l)), decisions[s][l]);
                let partial = multiply_slice(&slice, b_blk, blo..bhi, ring, mask_l, kernel, &lctx)?;
                accumulate(c_block, &partial, ring, &lctx, local_profile, PHASE_LOCAL)?;
            }
        }
        // A 2-D run's block is finished with its last stage; a 3-D run's
        // only after the merge below.
        if let (1, Some(rule)) = (layers, rule) {
            settle_block(c_block, origin(l), rule, local_profile)?;
        }
        Ok(())
    })?;

    // 3-D merge: binomial-tree allreduce of the layers' partial C blocks
    // into layer 0. Driver-side (the rounds are inherently sequential);
    // compute is charged to the receiving locale, sends are logged from
    // the sending layer's locale.
    let mut merge_profiles: Vec<Profile> = vec![Profile::default(); total];
    let mut half = 1usize;
    while half < layers {
        for j in (0..layers).step_by(2 * half) {
            let src_layer = j + half;
            if src_layer >= layers {
                continue;
            }
            for l in 0..p {
                let src = src_layer * p + l;
                let dst = j * p + l;
                let (rows, cols) = (state[src].0.nrows(), state[src].0.ncols());
                let partial = std::mem::replace(&mut state[src].0, CsrMatrix::empty(rows, cols));
                let nzr = (0..partial.nrows()).filter(|&i| partial.row_nnz(i) > 0).count();
                let bytes = dcsc::slice_wire_bytes(nzr, partial.nnz(), std::mem::size_of::<C>());
                dctx.comm.bulk(PHASE_MERGE, src, dst, 1, bytes)?;
                let mc = merge_profiles[dst].counters_mut(PHASE_MERGE);
                mc.elems += partial.nrows() as u64; // payload sizing scan
                mc.bytes_moved += bytes;
                let lctx = dctx.locale_ctx_for(l);
                let merged = &mut merge_profiles[dst];
                accumulate(&mut state[dst].0, &partial, ring, &lctx, merged, PHASE_MERGE)?;
            }
        }
        half *= 2;
    }
    if let (true, Some(rule)) = (layers > 1, rule) {
        for (l, (c_block, local_profile, _)) in state[..p].iter_mut().enumerate() {
            settle_block(c_block, origin(l), rule, local_profile)?;
        }
    }

    let (c_blocks, local_profiles, bcast_profiles) = finish(state, p);

    let c = DistCsrMatrix::from_blocks(a.nrows(), b.ncols(), grid, c_blocks)?;
    let mut trace = dctx.op("mxm_dist");
    trace
        .attr("algo", if layers > 1 { "summa3d" } else { "summa2d" })
        .attr("stages", stages)
        .attr("grid", format_args!("{}x{}", grid.pr(), grid.pc()))
        .nnz((a.nnz() + b.nnz()) as u64)
        .sched(sched_outcome);
    if layers > 1 {
        trace.attr("layers", layers);
    }
    if mask.is_some() {
        trace.attr("masked", true);
    }
    // Two coforalls for the whole multiply — format preparation and the
    // fused stage pipeline (whose trailing barrier also covers the 3-D
    // merge rounds, which are point-to-point between already-live
    // tasks). The legacy single-stage path spawns per stage instead.
    trace.spawn(PHASE_EXTRACT, 1);
    trace.spawn(PHASE_BCAST, 1);
    trace.compute(PHASE_EXTRACT, &extract_profiles);
    trace.compute(PHASE_BCAST, &bcast_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    if layers > 1 {
        trace.compute(PHASE_MERGE, &merge_profiles);
    }
    let mut report = trace.finish();
    report.merge(&select_report);
    Ok((c, report))
}

/// Log grid locale `me`'s broadcast of `bytes` to each of its `peers`,
/// all in the replication layer whose locales start at `base`.
fn broadcast(
    dctx: &DistCtx,
    base: usize,
    me: usize,
    peers: impl Iterator<Item = usize>,
    bytes: u64,
) -> Result<()> {
    for peer in peers.filter(|&peer| peer != me) {
        dctx.comm.bulk(PHASE_BCAST, base + me, base + peer, 1, bytes)?;
    }
    Ok(())
}

/// `c_block ⊕= partial` on the locale context `lctx`, then fold everything
/// `lctx` recorded (the multiply that produced `partial` included) into
/// `profile` under `phase`.
fn accumulate<C: Copy + Send + Sync, AddM: Monoid<C>, MulOp>(
    c_block: &mut CsrMatrix<C>,
    partial: &CsrMatrix<C>,
    ring: &Semiring<AddM, MulOp>,
    lctx: &ExecCtx,
    profile: &mut Profile,
    phase: &str,
) -> Result<()> {
    *c_block = gblas_core::ops::ewise_mat::ewise_add_mat(&*c_block, partial, &ring.add, lctx)?;
    let folded = profile.counters_mut(phase);
    for (_, cs) in lctx.take_profile().iter() {
        folded.merge(cs);
    }
    Ok(())
}

/// Settle a finished stationary block under an emit rule, in place: every
/// entry is stored as `rule` maps it or dropped (`origin` is the block's
/// global `(row, column)` offset), the arrays compacted and their unused
/// tail given back; one `elems` per entry under `profile`'s local phase.
fn settle_block<C: Copy>(
    c_block: &mut CsrMatrix<C>,
    (row0, col0): (usize, usize),
    rule: &impl Fn(usize, usize, C) -> Option<C>,
    profile: &mut Profile,
) -> Result<()> {
    let (nrows, ncols, mut rowptr, mut colidx, mut values) =
        std::mem::replace(c_block, CsrMatrix::empty(0, 0)).into_raw_parts();
    profile.counters_mut(PHASE_LOCAL).elems += colidx.len() as u64;
    // `rowptr[i]` already holds row i's new start; `start` is its old one.
    let (mut kept, mut start) = (0, 0);
    for i in 0..nrows {
        let end = rowptr[i + 1];
        for p in start..end {
            if let Some(w) = rule(row0 + i, col0 + colidx[p], values[p]) {
                (colidx[kept], values[kept]) = (colidx[p], w);
                kept += 1;
            }
        }
        start = end;
        rowptr[i + 1] = kept;
    }
    colidx.truncate(kept);
    values.truncate(kept);
    colidx.shrink_to_fit();
    values.shrink_to_fit();
    *c_block = CsrMatrix::from_raw_parts(nrows, ncols, rowptr, colidx, values)?;
    Ok(())
}

/// Stationary `C` blocks (one per layer-locale `g`, shaped like grid locale
/// `g % p`'s block) with their local and broadcast profiles.
fn stationary<A: Copy, B: Copy, C>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    total: usize,
) -> Vec<(CsrMatrix<C>, Profile, Profile)> {
    let p = a.grid().locales();
    let block = |g: usize| CsrMatrix::empty(a.row_range(g % p).len(), b.col_range(g % p).len());
    (0..total).map(|g| (block(g), Profile::default(), Profile::default())).collect()
}

/// Split the finished state into layer 0's `C` blocks and every
/// layer-locale's local and broadcast profiles.
#[allow(clippy::type_complexity)]
fn finish<C>(
    state: Vec<(CsrMatrix<C>, Profile, Profile)>,
    p: usize,
) -> (Vec<CsrMatrix<C>>, Vec<Profile>, Vec<Profile>) {
    let (mut blocks, mut local, mut bcast) = (Vec::with_capacity(p), Vec::new(), Vec::new());
    for (g, (blk, l, bc)) in state.into_iter().enumerate() {
        if g < p {
            blocks.push(blk);
        }
        local.push(l);
        bcast.push(bc);
    }
    (blocks, local, bcast)
}

/// One locale's stage-local multiply: `partial = slice ⊗ B[b_rows, :]`
/// over `ring`, masked by the locale's stationary mask block, through the
/// shared [`RowKernel`] with the stage's density-adaptive accumulator.
/// Each row lands in a tail of the partial's output streams pre-sized to
/// the row's bound, so the kernel writes its result in place.
fn multiply_slice<A, B, C, AddM, MulOp, M>(
    a_slice: &ColSlice<A>,
    b_blk: &CsrMatrix<B>,
    b_rows: Range<usize>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&CsrMatrix<M>>,
    kernel: MxmKernel,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("inner dimension", a_slice.ncols(), b_rows.len())?;
    // `b_rows` must not run off the block's end (equal unless it does)
    check_dims("B slice rows", b_rows.end.max(b_blk.nrows()), b_blk.nrows())?;
    let (m_l, q_l, zero) = (a_slice.nrows(), b_blk.ncols(), ring.zero::<C>());
    if let Some(m) = mask {
        check_dims("mask rows", m_l, m.nrows())?;
        check_dims("mask columns", q_l, m.ncols())?;
    }
    let mut colidx = ctx.ws_vec::<usize>();
    let mut values = ctx.ws_vec::<C>();
    let mut acc = RowKernel::checkout(kernel, q_l, zero, ctx);
    let mut rowptr = vec![0usize; m_l + 1];
    ctx.record(gblas_core::ops::mxm::PHASE, |c| {
        for (i, entries) in a_slice.rows() {
            let mask_row = mask.map(|m| m.row(i).0);
            let at = |x: usize| (b_rows.start + entries[x].0, entries[x].1);
            let bound = match mask_row {
                Some(m) => m.len(),
                None => q_l.min((0..entries.len()).map(|x| b_blk.row_nnz(at(x).0)).sum()),
            };
            let len = colidx.len();
            colidx.resize(len + bound, 0);
            values.resize(len + bound, zero);
            let (cols, vals) = (&mut colidx[len..], &mut values[len..]);
            // never an emit rule: a stage's partial sums are not finished
            let no_rule = None::<&fn(usize, C) -> Option<C>>;
            let n = acc.row(entries.len(), at, b_blk, ring, mask_row, no_rule, cols, vals, c);
            colidx.truncate(len + n);
            values.truncate(len + n);
            rowptr[i + 1] = n;
        }
    });
    for i in 0..m_l {
        rowptr[i + 1] += rowptr[i];
    }
    // The streams graduate into the partial; their guards shelve the
    // emptied vectors.
    let (colidx, values) = (std::mem::take(&mut *colidx), std::mem::take(&mut *values));
    CsrMatrix::from_raw_parts(m_l, q_l, rowptr, colidx, values)
}

/// The legacy single-stage-per-block sparse SUMMA (square grids): whole
/// CSR blocks on the wire, shared-memory `mxm` per stage. Kept as the
/// measured baseline for the `--fig spgemm` sweep; its broadcast bytes
/// now honestly include the `(rows+1)`-word row-pointer array that
/// dominates in the hypersparse regime.
fn single_stage<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    let p = grid.locales();
    let stages = grid.pc();
    let a_elem = std::mem::size_of::<A>();
    let b_elem = std::mem::size_of::<B>();

    let mut state = stationary::<A, B, C>(a, b, p);

    for k in 0..stages {
        dctx.for_each_locale_state(&mut state, |l, (c_block, local_profile, bcast_profile)| {
            let (r, c) = grid.coords(l);
            let a_owner = grid.locale(r, k);
            let a_blk = a.block(a_owner);
            let b_owner = grid.locale(k, c);
            let b_blk = b.block(b_owner);
            let a_bytes = dcsc::csr_wire_bytes(a_blk.nrows(), a_blk.nnz(), a_elem);
            let b_bytes = dcsc::csr_wire_bytes(b_blk.nrows(), b_blk.nnz(), b_elem);
            if l == a_owner {
                broadcast(dctx, 0, l, grid.row_locales(r), a_bytes)?;
            }
            if l == b_owner {
                broadcast(dctx, 0, l, grid.col_locales(c), b_bytes)?;
            }
            bcast_profile.counters_mut(PHASE_BCAST).bytes_moved += a_bytes + b_bytes;
            let lctx = dctx.locale_ctx_for(l);
            let mask_l = mask.map(|m| m.block(l));
            let partial = gblas_core::ops::mxm::mxm(a_blk, b_blk, ring, mask_l, &lctx)?;
            accumulate(c_block, &partial, ring, &lctx, local_profile, PHASE_LOCAL)?;
            if let (true, Some(rule)) = (k + 1 == stages, rule) {
                let origin = (a.row_range(l).start, b.col_range(l).start);
                settle_block(c_block, origin, rule, local_profile)?;
            }
            Ok(())
        })?;
    }

    let (c_blocks, local_profiles, bcast_profiles) = finish(state, p);

    let c = DistCsrMatrix::from_blocks(a.nrows(), b.ncols(), grid, c_blocks)?;
    let mut trace = dctx.op("mxm_dist");
    trace
        .attr("algo", "single")
        .attr("stages", stages)
        .attr("grid", format_args!("{}x{}", grid.pr(), grid.pc()))
        .nnz((a.nnz() + b.nnz()) as u64);
    if mask.is_some() {
        trace.attr("masked", true);
    }
    trace.spawn(PHASE_BCAST, stages);
    trace.compute(PHASE_BCAST, &bcast_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    Ok((c, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::algebra::semirings;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_shared_memory_spgemm_at_every_square_grid() {
        let a = gen::erdos_renyi(90, 4, 221);
        let b = gen::erdos_renyi(90, 4, 222);
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::mxm::mxm::<_, _, f64, _, _, bool>(
            &a,
            &b,
            &semirings::plus_times_f64(),
            None,
            &ctx,
        )
        .unwrap();
        for s in [1usize, 2, 3] {
            let grid = ProcGrid::new(s, s);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let db = DistCsrMatrix::from_global(&b, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (dc, report) = mxm_dist(&da, &db, &semirings::plus_times_f64(), &dctx).unwrap();
            let got = dc.to_global().unwrap();
            assert_eq!(got.rowptr(), expect.rowptr(), "grid {s}x{s}");
            assert_eq!(got.colidx(), expect.colidx(), "grid {s}x{s}");
            for (x, y) in got.values().iter().zip(expect.values()) {
                assert!((x - y).abs() < 1e-9, "grid {s}x{s}");
            }
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn rectangular_grids_match_shared_exactly_on_integer_rings() {
        // u64 plus-times: addition is associative, so every grid shape and
        // stage blocking must produce bit-identical results
        let af = gen::erdos_renyi(77, 4, 231);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 3u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let expect: CsrMatrix<u64> =
            gblas_core::ops::mxm::mxm::<_, _, u64, _, _, bool>(&a, &a, &ring, None, &ctx).unwrap();
        for (pr, pc) in [(1usize, 2usize), (2, 1), (2, 3), (3, 2), (1, 4), (4, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dc, report) = mxm_dist(&da, &da, &ring, &dctx).unwrap();
            assert_eq!(dc.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0, "grid {pr}x{pc}");
        }
    }

    #[test]
    fn masked_mixed_type_summa_matches_shared() {
        // the triangle-counting shape: C⟨L⟩ = L · Lᵀ over plus-pair,
        // f64 operands producing u64 counts — exact, so rectangular grids
        // are held to bit-identity too
        let a = gen::erdos_renyi_symmetric(80, 5, 225);
        let ctx = gblas_core::par::ExecCtx::serial();
        let l = gblas_core::ops::select::tril(&a, &ctx);
        let u = gblas_core::ops::transpose::transpose(&l, &ctx).unwrap();
        let ring = semirings::plus_pair();
        let expect: gblas_core::container::CsrMatrix<u64> =
            gblas_core::ops::mxm::mxm(&l, &u, &ring, Some(&l), &ctx).unwrap();
        for (pr, pc) in [(1usize, 1usize), (2, 2), (3, 3), (2, 3), (3, 2)] {
            let grid = ProcGrid::new(pr, pc);
            let dl = DistCsrMatrix::from_global(&l, grid);
            let du = DistCsrMatrix::from_global(&u, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dc, report) =
                mxm_dist_masked::<_, _, u64, _, _, f64>(&dl, &du, &ring, Some(&dl), &dctx).unwrap();
            assert_eq!(dc.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn single_stage_baseline_matches_summa2d() {
        let af = gen::erdos_renyi(64, 4, 233);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 2u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (c_single, _) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Single,
            &dctx,
        )
        .unwrap();
        let (c_multi, _) = mxm_dist(&da, &da, &ring, &dctx).unwrap();
        assert_eq!(c_single.to_global().unwrap(), c_multi.to_global().unwrap());
        // single still refuses rectangular grids
        let dr = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 4));
        assert!(mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &dr,
            &dr,
            &ring,
            None,
            MxmAlgo::Single,
            &dctx
        )
        .is_err());
    }

    #[test]
    fn summa3d_matches_2d_and_prices_merge() {
        let af = gen::erdos_renyi(60, 4, 235);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 1u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx2 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (c2, _) = mxm_dist(&da, &da, &ring, &dctx2).unwrap();
        // 2x2 grid x 2 layers = 8 machine locales
        let dctx3 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let (c3, r3) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Summa3d { layers: 2 },
            &dctx3,
        )
        .unwrap();
        assert_eq!(c3.to_global().unwrap(), c2.to_global().unwrap());
        assert!(r3.phase(PHASE_MERGE) > 0.0, "allreduce merge must be priced");
        assert!(r3.phase(PHASE_REPLICATE) > 0.0, "replication must be priced");
        // derived layer count (layers: 0) resolves from the machine size
        let (c3b, _) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Summa3d { layers: 0 },
            &dctx3,
        )
        .unwrap();
        assert_eq!(c3b.to_global().unwrap(), c2.to_global().unwrap());
        // mismatched machine/layer product is an error
        assert!(mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Summa3d { layers: 3 },
            &dctx3
        )
        .is_err());
    }

    #[test]
    fn masked_summa_validates_mask_shape() {
        let a = gen::erdos_renyi(40, 3, 226);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        // mask on a different grid
        let m1 = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 1));
        assert!(mxm_dist_masked::<_, _, f64, _, _, f64>(
            &da,
            &da,
            &semirings::plus_times_f64(),
            Some(&m1),
            &dctx
        )
        .is_err());
        // mask with the wrong shape
        let small = gen::erdos_renyi(39, 3, 227);
        let m2 = DistCsrMatrix::from_global(&small, grid);
        assert!(mxm_dist_masked::<_, _, f64, _, _, f64>(
            &da,
            &da,
            &semirings::plus_times_f64(),
            Some(&m2),
            &dctx
        )
        .is_err());
    }

    #[test]
    fn every_kernel_kind_gives_the_same_partial() {
        let a = gen::rmat(7, 5, 230);
        let mask = gen::erdos_renyi(128, 12, 231);
        let ctx = gblas_core::par::ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        let slice = dcsc::csr_col_slice(&a, 16, 96, &mut Counters::default());
        for mask in [None, Some(&mask)] {
            let run = |kernel: MxmKernel| {
                multiply_slice::<_, _, f64, _, _, _>(&slice, &a, 16..96, &ring, mask, kernel, &ctx)
                    .unwrap()
            };
            let spa = run(MxmKernel::Spa);
            assert!(spa.nnz() > 0);
            // twice each: the second call runs on the pooled, used state
            for kernel in [MxmKernel::Hash, MxmKernel::Heap, MxmKernel::Hash, MxmKernel::Heap] {
                assert_eq!(run(kernel), spa, "{kernel:?} masked={}", mask.is_some());
            }
        }
    }

    #[test]
    fn slice_level_mismatches_are_errors_not_panics() {
        let a = gen::erdos_renyi(30, 3, 228);
        let ctx = gblas_core::par::ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        let slice = dcsc::csr_col_slice(&a, 5, 25, &mut Counters::default());
        let run = |b_rows: Range<usize>, mask: Option<&CsrMatrix<f64>>| {
            multiply_slice::<_, _, f64, _, _, _>(
                &slice,
                &a,
                b_rows,
                &ring,
                mask,
                MxmKernel::Spa,
                &ctx,
            )
        };
        assert!(run(5..25, Some(&a)).is_ok());
        // the slice is 20 columns wide: a 19-row B slice cannot meet it
        assert!(matches!(run(5..24, None), Err(GblasError::DimensionMismatch { .. })));
        // nor can 20 rows that run off the end of the block
        assert!(matches!(run(11..31, None), Err(GblasError::DimensionMismatch { .. })));
        // and the mask must have the partial's shape
        let small = gen::erdos_renyi(29, 3, 229);
        assert!(matches!(run(5..25, Some(&small)), Err(GblasError::DimensionMismatch { .. })));
    }

    #[test]
    fn accepts_rectangular_grids_and_rejects_mismatches() {
        let a = gen::erdos_renyi(40, 3, 223);
        let dctx4 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        // rectangular grids are first-class now
        let g_rect = ProcGrid::new(1, 4);
        let da = DistCsrMatrix::from_global(&a, g_rect);
        assert!(mxm_dist(&da, &da, &semirings::plus_times_f64(), &dctx4).is_ok());
        // grid mismatch between the operands is still rejected
        let g2 = ProcGrid::new(2, 2);
        let da2 = DistCsrMatrix::from_global(&a, g2);
        let da1 = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 1));
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assert!(mxm_dist(&da2, &da1, &semirings::plus_times_f64(), &dctx).is_err());
        // and so is a machine/grid size mismatch
        let dctx6 = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        assert!(mxm_dist(&da2, &da2, &semirings::plus_times_f64(), &dctx6).is_err());
    }

    #[test]
    fn broadcast_volume_is_bounded_by_stages() {
        let a = gen::erdos_renyi(60, 4, 224);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let db = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let _ = mxm_dist(&da, &db, &semirings::plus_times_f64(), &dctx).unwrap();
        let (fine, bulk, _) = dctx.comm.totals();
        assert_eq!(fine, 0, "SUMMA is all-bulk");
        // per stage: each locale receives at most 2 remote slices;
        // 2 stages x 4 locales x 2 = 16 upper bound (diagonal owners skip)
        assert!((4..=16).contains(&bulk), "bulk = {bulk}");
    }

    #[test]
    fn iterative_callers_replay_the_stage_plan() {
        let af = gen::erdos_renyi(50, 4, 237);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 1u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        let (c1, _) = mxm_dist(&da, &da, &ring, &dctx).unwrap();
        let before = dctx.metrics().snapshot();
        // a *fresh* matrix of the same shape (new generation) still
        // replays: the plan is shape-keyed, not content-keyed
        let (_, _) = mxm_dist(&c1, &c1, &ring, &dctx).unwrap();
        let after = dctx.metrics().snapshot();
        assert_eq!(after.sched_replays, before.sched_replays + 1, "expected a plan replay");
        assert_eq!(after.sched_builds, before.sched_builds);
    }

    #[test]
    fn auto_layer_count_follows_cbrt_rule() {
        assert_eq!(auto_layers(1), 1);
        assert_eq!(auto_layers(4), 1);
        assert_eq!(auto_layers(8), 2);
        assert_eq!(auto_layers(16), 2);
        assert_eq!(auto_layers(64), 4);
        assert_eq!(auto_layers(256), 4);
        assert_eq!(MxmAlgo::parse("2d"), Some(MxmAlgo::Summa2d));
        assert_eq!(MxmAlgo::parse("3d"), Some(MxmAlgo::Summa3d { layers: 0 }));
        assert_eq!(MxmAlgo::parse("single"), Some(MxmAlgo::Single));
        assert_eq!(MxmAlgo::parse("4d"), None);
    }
}
