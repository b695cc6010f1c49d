//! Distributed SpGEMM: `C = A ⊗ B` by multi-stage sparse SUMMA.
//!
//! The paper cites the 2-D sparse SUMMA algorithm for matrix-matrix
//! multiply and general indexing \[8\] (Buluç & Gilbert) as the natural
//! companion to its block distribution. Stationary-C formulation: in
//! stage `s` covering the inner-dimension interval `[lo, hi)`, the owners
//! of `A`'s covering column-block broadcast that interval's *column
//! slice* along their grid row and the owners of `B`'s covering row-block
//! broadcast the interval's *row slice* down their grid column. The stage
//! loop is the wire and nothing else: after its last stage a locale holds
//! its grid row's panel of `A` and its grid column's panel of `B`, and
//! computes its `C` block in ONE row-wise pass over the two
//! ([`local_block`]) — no stage partials, no running sum rewritten per
//! stage.
//!
//! Two algorithm variants ([`MxmAlgo`]):
//!
//! * **`Summa2d`** — multi-stage DCSC SUMMA on arbitrary rectangular
//!   `pr×pc` grids. The stage bounds are the sorted union of `A`'s column
//!   split and `B`'s row split ([`SummaPlan`]), so no `lcm`-sized
//!   re-blocking is needed; broadcasts carry doubly compressed slices
//!   ([`crate::dcsc`]) whose wire bytes scale with the slice's nonzeros,
//!   not the block side — the hypersparsity win. Each locale's pass is
//!   shared [`mxm_emit`] over its panels: the pooled dense SPA shared
//!   memory runs, with nothing chosen per locale.
//! * **`Summa3d`** — the communication-avoiding 3-D variant: the machine
//!   is split into `c` replication layers of `p` locales each, stages are
//!   dealt to layers by estimated flops, operand blocks are replicated to
//!   the layer that consumes them (priced point-to-point), every
//!   layer-locale runs the pass over its layer's share of the inner
//!   dimension, and the layers' partial `C` blocks are merged by a
//!   binomial-tree allreduce. Fewer, larger blocks per layer mean smaller
//!   broadcast fan-out; the price is the `log₂ c` merge rounds over the
//!   (sparse) partial products.
//!
//! Every output entry of a 2-D run is folded in ascending inner-dimension
//! order by the kernel shared memory runs, so a `Summa2d` product is
//! *bit-identical* to shared [`gblas_core::ops::mxm::mxm`] on every grid
//! and executor — floating point included. `Summa3d`
//! adds per-layer sums afterwards: bit-identical on integer semirings,
//! equal to rounding on floats (the sums associate differently).

use crate::dcsc::{self, choose_format, BlockFormat, DcscBlock};
use crate::exec::DistCtx;
use crate::grid::ProcGrid;
use crate::mat::DistCsrMatrix;
use crate::sched::{fingerprint_indices, FrontierClass, PlanData, SummaPlan};
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::CsrMatrix;
use gblas_core::error::{check_dims, Result};
use gblas_core::ops::apply::map_mat;
use gblas_core::ops::ewise_mat::ewise_add_mat;
use gblas_core::ops::mxm::{mxm_emit, NoRule};
use gblas_core::ops::select::select_mat;
use gblas_core::par::{ExecCtx, Profile};
use gblas_sim::SimReport;
use std::collections::BTreeSet;

/// Phase: slice/block broadcasts.
pub const PHASE_BCAST: &str = "broadcast";
/// Phase: each locale's pass over its panels.
pub const PHASE_LOCAL: &str = "local";
/// Phase: DCSC conversion on the owners.
pub const PHASE_EXTRACT: &str = "extract";
/// Phase: operand block replication to 3-D layers.
pub const PHASE_REPLICATE: &str = "replicate";
/// Phase: binomial allreduce merging the layers' partial `C` blocks.
pub const PHASE_MERGE: &str = "allreduce";

/// Which SUMMA variant a distributed multiply runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmAlgo {
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
            MxmAlgo::Summa2d => "summa2d",
            MxmAlgo::Summa3d { .. } => "summa3d",
        }
    }

    /// Parse the CLI spelling (`2d` | `3d`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
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
/// The mask is structural and distributed on the *same grid* as the `C`
/// blocks, so a locale's mask block covers exactly its `C` block and the
/// local pass runs under it row by row: suppressed entries are never
/// formed. This is what masked distributed triangle counting
/// (`C⟨L⟩ = L · L`, one matrix as both operands and the mask) needs.
///
/// The rule (global coordinates; see [`gblas_core::ops::mxm::mxm_emit`])
/// sees finished entries only. A 2-D locale's pass finishes its block, so
/// the rule is applied as the row kernel emits, exactly as in shared
/// memory — one `elems` per finished entry, a dropped entry never stored.
/// A 3-D block is finished by the last element-wise add into it, and the
/// rule is then core `select` and `map` over the block
/// ([`apply_rule`]; pure, so asking it twice about a kept entry changes
/// nothing). Neither way takes a superstep or spawn of its own.
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
        MxmAlgo::Summa2d => 1,
    };
    check_dims("machine locales (grid x layers)", p * layers, dctx.locales())?;
    summa_engine(a, b, ring, mask, rule, layers, dctx)
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
    let mut trace = dctx.op("mxm_dist"); // the wall clock starts with the op
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

    // Prepare superstep, owner side: every locale picks its A block's
    // representation (DCSC when hypersparse) and converts once — that work
    // lands in the extract phase; B blocks stay CSR, row slices are
    // contiguous — then sizes the stage slices of its two blocks: what each
    // weighs on the wire, `(A bytes, B bytes)` per stage. An
    // empty slice weighs nothing: DCSC's `jc` array answers "is this
    // k-range empty?" without touching a rowptr, so hypersparse stages cost
    // zero messages — the payoff the legacy full-CSR baseline (which always
    // ships `(rows+1)` pointer words) cannot see.
    type Prep<A> = (Option<DcscBlock<A>>, Profile, Vec<(u64, u64)>);
    let mut prep: Vec<Prep<A>> = (0..p).map(|_| (None, Profile::default(), Vec::new())).collect();
    dctx.for_each_locale_state(&mut prep, |l, (slot, prof, wire)| {
        let (r, c) = grid.coords(l);
        let (a_blk, b_blk) = (a.block(l), b.block(l));
        if choose_format(a_blk.nnz(), a_blk.nrows().max(a_blk.ncols())) == BlockFormat::Dcsc {
            let c = prof.counters_mut(PHASE_EXTRACT);
            c.elems += a_blk.nnz() as u64;
            c.sort_elems += (a_blk.nnz().max(1).ilog2() as u64 + 1) * a_blk.nnz() as u64;
            *slot = Some(DcscBlock::from_csr(a_blk));
        }
        let (a0, b0) = (a.col_range(l).start, b.row_range(l).start);
        let weigh = |s: usize| {
            let (lo, hi) = plan.bounds[s];
            let a_bytes = (plan.ka[s] == c).then(|| {
                let (nzr, nnz) = match &*slot {
                    Some(d) => d.slice_header(lo - a0, hi - a0),
                    None => dcsc::csr_slice_header(a_blk, lo - a0, hi - a0),
                };
                dcsc::slice_wire_bytes(nzr, nnz, a_elem)
            });
            let b_bytes = (plan.kb[s] == r).then(|| {
                let nzr = (lo - b0..hi - b0).filter(|&i| b_blk.row_nnz(i) > 0).count();
                let nnz = b_blk.rowptr()[hi - b0] - b_blk.rowptr()[lo - b0];
                dcsc::slice_wire_bytes(nzr, nnz, b_elem)
            });
            (a_bytes.unwrap_or(0), b_bytes.unwrap_or(0))
        };
        *wire = (0..stages).map(weigh).collect();
        Ok(())
    })?;
    let mut extract_profiles: Vec<_> = prep.iter().map(|(_, prof, _)| prof.clone()).collect();
    extract_profiles.resize(total, Profile::default());

    // Stage -> layer assignment (3-D only): LPT greedy on driver-side flop
    // estimates, heaviest stage to the least-loaded layer. A stage's cost
    // is its critical path, the largest estimate over the grid positions;
    // the estimates are pure integers from block structure, so every
    // locale and both executors agree without communication. Round-robin
    // dealing loses badly on skewed (RMAT) inputs, where hub block-columns
    // concentrate the flops in a few stages.
    let stage_cost = |s: usize| {
        let (lo, hi) = plan.bounds[s];
        let w = hi - lo;
        let brange = b.row_dist().range(plan.kb[s]);
        let (blo, bhi) = (lo - brange.start, hi - brange.start);
        let per_locale = |l: usize| {
            let (r, c) = grid.coords(l);
            let a_blk = a.block(grid.locale(r, plan.ka[s]));
            let b_blk = b.block(grid.locale(plan.kb[s], c));
            let b_nnz = b_blk.rowptr()[bhi] - b_blk.rowptr()[blo];
            let a_est = a_blk.nnz() * w / a_blk.ncols().max(1);
            a_est * b_nnz / w.max(1)
        };
        (0..p).map(per_locale).max().unwrap_or(0) as u64
    };
    let mut stage_layer = vec![0usize; stages];
    if layers > 1 {
        let cost: Vec<u64> = (0..stages).map(stage_cost).collect();
        let mut order: Vec<usize> = (0..stages).collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(cost[s]), s));
        let mut load = vec![0u64; layers];
        for s in order {
            let target = (0..layers).min_by_key(|&j| (load[j], j)).unwrap_or(0);
            stage_layer[s] = target;
            load[target] += cost[s].max(1);
        }
    }
    // Each layer's share of the inner dimension, adjacent stages joined.
    let mut spans: Vec<Vec<(usize, usize)>> = vec![Vec::new(); layers];
    for (s, &layer) in stage_layer.iter().enumerate() {
        let (lo, hi) = plan.bounds[s];
        match spans[layer].last_mut() {
            Some(last) if last.1 == lo => last.1 = hi,
            _ => spans[layer].push((lo, hi)),
        }
    }
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
            match &prep[base].0 {
                Some(d) => dcsc::dcsc_wire_bytes(d.nzc(), d.nnz(), a_elem),
                None => {
                    let blk = a.block(base);
                    dcsc::csr_wire_bytes(blk.nrows(), blk.nnz(), a_elem)
                }
            }
        };
        dctx.comm.bulk(PHASE_REPLICATE, base, layer * p + base, 1, bytes)?;
    }

    // The whole stage pipeline runs inside ONE SPMD superstep: every
    // locale task loops its stages locally, with the per-stage exchange
    // expressed as owner-logged point-to-point sends. This is the
    // multi-stage engine's structural advantage over the single-stage
    // baseline of `--fig spgemm`, which re-spawns a machine-wide superstep per
    // stage and pays the `locales × c_remote_task` coforall fan-out every
    // time — at 256 nodes that fan-out, not the wire, dominates its
    // broadcast phase. Each layer-locale hands back its C block (over its
    // layer's stages) with its local and broadcast profiles.
    let mut state = dctx.for_each_locale(|g| {
        let (l, layer) = (g % p, g / p);
        let (r, c) = grid.coords(l);
        let (mut local_profile, mut bcast_profile) = (Profile::default(), Profile::default());
        // The stage loop is the wire. Sends are logged by the *owner*'s
        // task — one writer per source keeps the comm log's per-src order
        // deterministic under the threaded executor — and empty slices
        // never hit it.
        for s in (0..stages).filter(|&s| stage_layer[s] == layer) {
            let (a_owner, b_owner) = (grid.locale(r, plan.ka[s]), grid.locale(plan.kb[s], c));
            let (a_bytes, b_bytes) = (prep[a_owner].2[s].0, prep[b_owner].2[s].1);
            if l == a_owner && a_bytes > 0 {
                broadcast(dctx, layer * p, l, grid.row_locales(r), a_bytes)?;
            }
            if l == b_owner && b_bytes > 0 {
                broadcast(dctx, layer * p, l, grid.col_locales(c), b_bytes)?;
            }
            bcast_profile.counters_mut(PHASE_BCAST).bytes_moved += a_bytes + b_bytes;
        }
        // The local phase is one pass over what arrived. It finishes a 2-D
        // run's block, so the rule rides on it; a 3-D run's the merge does.
        let rule = rule.filter(|_| layers == 1);
        let lctx = dctx.locale_ctx_for(l);
        let block = local_block(a, b, ring, mask, rule, l, &spans[layer], &lctx)?;
        fold(&lctx, &mut local_profile, PHASE_LOCAL);
        Ok((block, local_profile, bcast_profile))
    })?;

    // 3-D merge: binomial-tree allreduce of the layers' partial C blocks
    // into layer 0. Driver-side (the rounds are inherently sequential);
    // compute is charged to the receiving locale, sends are logged from the
    // sending layer's locale. The last round finishes the blocks: rule next.
    let mut merge_profiles: Vec<Profile> = vec![Profile::default(); total];
    let mut half = 1usize;
    while half < layers {
        let rule = rule.filter(|_| 2 * half >= layers);
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
                let origin = (a.row_range(l).start, b.col_range(l).start);
                let sum = ewise_add_mat(&state[dst].0, &partial, &ring.add, &lctx)?;
                state[dst].0 = apply_rule(sum, rule, origin, &lctx);
                fold(&lctx, &mut merge_profiles[dst], PHASE_MERGE);
            }
        }
        half *= 2;
    }

    let (c_blocks, local_profiles, bcast_profiles) = finish(state, p);

    let c = DistCsrMatrix::from_blocks(a.nrows(), b.ncols(), grid, c_blocks)?;
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
    // tasks).
    trace.spawn(PHASE_EXTRACT, 1);
    trace.spawn(PHASE_BCAST, 1);
    trace.compute(PHASE_EXTRACT, &extract_profiles);
    trace.compute(PHASE_BCAST, &bcast_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    if layers > 1 {
        trace.compute(PHASE_MERGE, &merge_profiles);
    }
    Ok((c, trace.finish()))
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

/// A finished `block` whose global `(row, column)` offset is `origin`, as
/// `rule` (global coordinates) stores it: the kept entries' images.
fn apply_rule<C: Copy + Send + Sync>(
    block: CsrMatrix<C>,
    rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    (row0, col0): (usize, usize),
    ctx: &ExecCtx,
) -> CsrMatrix<C> {
    let Some(rule) = rule else { return block };
    let rule = |i, j, v| rule(row0 + i, col0 + j, v);
    let kept = select_mat(&block, &|i, j, v| rule(i, j, v).is_some(), ctx);
    map_mat(&kept, &|i, j, v| rule(i, j, v).unwrap_or(v), ctx)
}

/// Fold everything `lctx` recorded into `profile` under `phase`.
fn fold(lctx: &ExecCtx, profile: &mut Profile, phase: &str) {
    let folded = profile.counters_mut(phase);
    for (_, cs) in lctx.take_profile().iter() {
        folded.merge(cs);
    }
}

/// One locale's local phase: block `l` of `C⟨M⟩ = rule(A[:, K] ⊗ B[K, :])`,
/// `K` the union of the ascending inner-dimension intervals `spans` — all
/// of it on a 2-D grid, a layer's stages on a 3-D one.
///
/// This is shared [`mxm_emit`] — the same flop-dealt chunks, flop-bounded
/// windows and row kernel, one pass per multiply — over the row panel of
/// `A` and the column panel of `B` the stage loop delivered, viewed in
/// place: row `i` is ONE pass of the SPA over the grid row's blocks chained
/// in ascending `k`, each `B[k, :]` looked up in the block that holds it,
/// under the locale's mask row, `rule` (global coordinates) applied at
/// emit, written into the block's final arrays. A locale that received
/// nothing does nothing.
#[allow(clippy::too_many_arguments)]
fn local_block<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    l: usize,
    spans: &[(usize, usize)],
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
    let (r, c) = a.grid().coords(l);
    let (a_panel, b_panel) = (a.row_panel(r, spans), b.col_panel(c));
    if a_panel.nnz() == 0 || b_panel.nnz() == 0 {
        return Ok(CsrMatrix::empty(a.row_range(l).len(), b.col_range(l).len()));
    }
    let (row0, col0) = (a.row_range(l).start, b.col_range(l).start);
    let rule = rule.map(|keep| move |i, j, v| keep(row0 + i, col0 + j, v));
    mxm_emit(&a_panel, &b_panel, ring, mask.map(|m| m.block(l)), rule.as_ref(), ctx)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LocaleExecutor;
    use crate::grid::ProcGrid;
    use gblas_core::algebra::semirings;
    use gblas_core::error::GblasError;
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
        // a masked mixed-type shape: C⟨L⟩ = L · Lᵀ over plus-pair,
        // f64 operands producing u64 counts — exact, so rectangular grids
        // are held to bit-identity too
        let a = gen::erdos_renyi_symmetric(80, 5, 225);
        let ctx = gblas_core::par::ExecCtx::serial();
        let l = gblas_core::ops::select::select_mat(&a, &|i, j, _| j < i, &ctx);
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
    fn one_operand_as_a_b_and_mask_matches_shared() {
        // the triangle-counting shape: C⟨L⟩ = L · L over plus-pair, one
        // matrix as both operands and the mask, f64 → u64 — exact, so every
        // grid and both executors are held to bit-identity
        let a = gen::erdos_renyi_symmetric(80, 5, 225);
        let ctx = gblas_core::par::ExecCtx::serial();
        let l = gblas_core::ops::select::select_mat(&a, &|i, j, _| j < i, &ctx);
        let ring = semirings::plus_pair();
        let expect: gblas_core::container::CsrMatrix<u64> =
            gblas_core::ops::mxm::mxm(&l, &l, &ring, Some(&l), &ctx).unwrap();
        for (pr, pc) in [(1usize, 1usize), (2, 2), (3, 3), (2, 3), (3, 2), (1, 6), (6, 1)] {
            let grid = ProcGrid::new(pr, pc);
            let dl = DistCsrMatrix::from_global(&l, grid);
            for exec in [LocaleExecutor::Threaded, LocaleExecutor::Serial] {
                let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
                dctx.set_executor(exec);
                let (dc, report) =
                    mxm_dist_masked::<_, _, u64, _, _, f64>(&dl, &dl, &ring, Some(&dl), &dctx)
                        .unwrap();
                assert_eq!(dc.to_global().unwrap(), expect, "grid {pr}x{pc} {exec:?}");
                assert!(report.total() > 0.0);
            }
        }
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
    fn local_block_is_the_block_of_the_narrowed_product() {
        // a layer's share of the inner dimension, cutting through blocks:
        // the panel must hold exactly A[:, K]
        let a = gen::rmat(7, 5, 230);
        let mask = gen::erdos_renyi(128, 12, 231);
        let ctx = gblas_core::par::ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        let spans = [(16, 70), (90, 121)];
        let inside = |_: usize, k: usize, _: f64| spans.iter().any(|&(lo, hi)| lo <= k && k < hi);
        let narrowed = gblas_core::ops::select::select_mat(&a, &inside, &ctx);
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        for mask in [None, Some(&mask)] {
            let expect: CsrMatrix<f64> =
                gblas_core::ops::mxm::mxm(&narrowed, &a, &ring, mask, &ctx).unwrap();
            let expect = DistCsrMatrix::from_global(&expect, grid);
            let dm = mask.map(|m| DistCsrMatrix::from_global(m, grid));
            // twice: the second pass runs on the pooled, used state
            for pass in 0..2 {
                for l in 0..grid.locales() {
                    let rule = None::<&NoRule<f64>>;
                    let got: CsrMatrix<f64> =
                        local_block(&da, &da, &ring, dm.as_ref(), rule, l, &spans, &ctx).unwrap();
                    assert_eq!(
                        &got,
                        expect.block(l),
                        "pass {pass} masked={} l={l}",
                        mask.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn panel_level_mismatches_are_errors_not_panics() {
        let a = gen::erdos_renyi(30, 3, 228);
        let ctx = gblas_core::par::ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let run = |b: &DistCsrMatrix<f64>, mask: Option<&DistCsrMatrix<f64>>| {
            let rule = None::<&NoRule<f64>>;
            local_block::<_, _, f64, _, _, _>(&da, b, &ring, mask, rule, 0, &[(0, 30)], &ctx)
        };
        assert!(run(&da, Some(&da)).is_ok());
        // a 29-row B cannot meet a 30-column A
        let small = DistCsrMatrix::from_global(&gen::erdos_renyi(29, 3, 229), grid);
        assert!(matches!(run(&small, None), Err(GblasError::DimensionMismatch { .. })));
        // and the mask block must have the C block's shape
        assert!(matches!(run(&da, Some(&small)), Err(GblasError::DimensionMismatch { .. })));
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
        assert_eq!(MxmAlgo::parse("4d"), None);
    }
}
