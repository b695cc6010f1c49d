//! Distributed `SpMSpV` (§III-D, Listing 8, Figs 8–9) and the push
//! engine every sparse-frontier kernel of the crate runs on.
//!
//! `y ← x A` on a 2-D block-distributed matrix is the paper's three-step
//! pipeline, each step a separately-timed component:
//!
//! 1. **`gather`** — every locale `(r, c)` collects the pieces of `x`
//!    owned by the locales of its processor *row* `r` (those blocks cover
//!    exactly its row range). Listing 8 copies the remote indices
//!    element-at-a-time (`lxDom._value.indices[di] = si` over a remote
//!    iterator), which [`spmspv_dist`] reproduces as fine-grained traffic;
//!    [`spmspv_dist_bulk`] moves each nonempty source block as one message
//!    — the §IV "bulk-synchronous communication" remedy.
//! 2. **`local`** — each locale runs the push rule's shared-memory SpMSpV
//!    ([`PushRule::multiply_block`]) on its block.
//!    This is the part the paper observes scaling well ("up to 43×").
//! 3. **`scatter`** — local results are written into a *global SPA*: a
//!    dense Block-distributed `isthere`/value pair. Listing 8 writes one
//!    remote atomic per output element (fine-grained again); the bulk
//!    variant aggregates per destination locale.
//!
//! All three steps exist once, for any number `k ≥ 0` of concurrent
//! sources, in one body (`push`: validate, `gather_rows`, `push_engine`,
//! price the report). Every entry point runs it — this module's
//! single-source functions with `k = 1` and the backend trait's push with
//! its batch width — so a single source is a batch of one, priced as one.
//! An entry point chooses only what genuinely varies: the [`CommStrategy`]
//! of the gather and scatter, the core [`PushRule`] ([`FirstVisitor`] or a
//! semiring: the local kernel, the owner's resolution of competing claims
//! and the op's one name) and one optional [`DistMask`] per source (each
//! with its own polarity). The body stamps the op span's attributes itself,
//! strategy and merge first. What does *not* vary with `k` is fixed in the body:
//! every source multiplies under the caller's one `SpMSpVOpts`; the gather
//! plan is cached under one schedule key, since row peers and mask windows
//! are functions of the grid; and a scatter claim is priced at its wire
//! width, an `(offset, value)` pair, since claims travel grouped by source
//! with per-source end offsets. Under the SPMD executor a push is three
//! supersteps: every locale gathers its frontier slices; then every locale
//! gathers its masks' bits, multiplies locally under them (masking at the
//! sender) and builds one outbox per owning locale (logging its own
//! traffic); then every owner drains its inboxes — in source-locale order,
//! so competing parents and floating-point accumulation resolve exactly as
//! a serial sweep would — into its *own* dense segment and builds its
//! output shard from it (`denseToSparse`).
//!
//! The first-visitor output stores, per reached column, the **smallest
//! global row id** among its visitors — the BFS parent vector. Each
//! locale's claim is already its block's minimum (the shared kernel's
//! min-claim), and the senders competing for one column sit in ascending
//! row blocks, so the first claim an owner drains is the global minimum:
//! the same rule as shared memory, with no comparison at the owner.

use crate::exec::{DistCtx, OpTrace, Outbox};
use crate::grid::BlockDist;
use crate::mat::DistCsrMatrix;
use crate::sched::{FrontierClass, GatherPlan, PlanData, SchedOutcome};
use crate::vec::DistSparseVec;
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::backend::{FirstVisitor, PushRule};
use gblas_core::container::SparseVec;
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::mask::VecMask;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::{Counters, ExecCtx, Profile};
use gblas_core::workspace::WsGuard;
use gblas_sim::SimReport;
use std::sync::Arc;

/// Phase: gather `x` along the processor row.
pub const PHASE_GATHER: &str = "gather";
/// Phase: local multiply.
pub const PHASE_LOCAL: &str = "local";
/// Phase: scatter the output across processor columns.
pub const PHASE_SCATTER: &str = "scatter";

/// Communication aggregation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommStrategy {
    /// Element-at-a-time remote access — Listing 8 as written.
    #[default]
    Fine,
    /// Aggregated communication (§IV's recommendation). The gather moves
    /// each nonempty remote row peer's slices of every source as one
    /// message, priced by actual payload width, and the scatter sends one
    /// block per pair.
    Bulk,
}

/// A finished gather, as the report assembly prices it: per-locale
/// profiles (its one fork-join fan-out is priced at [`Pushed::finish`]),
/// how its schedule resolved, and the [`GatherPlan`] it ran from (for its
/// mask windows).
struct Gather {
    profiles: Vec<Profile>,
    sched: SchedOutcome,
    plan: Arc<PlanData>,
}

/// Inspect or replay the row-aligned [`GatherPlan`] of `a` under the
/// schedule key `(op, class)` — on the driver thread, before any
/// superstep. Keyed on the matrix generation: a rebuilt matrix
/// invalidates and re-inspects.
pub(crate) fn row_gather_schedule<B: Copy>(
    a: &DistCsrMatrix<B>,
    op: &'static str,
    class: FrontierClass,
    dctx: &DistCtx,
) -> (Arc<PlanData>, SchedOutcome) {
    let grid = a.grid();
    let out_dist = BlockDist::new(a.ncols(), grid.locales());
    dctx.schedule(op, class, (grid.pr(), grid.pc()), a.generation(), 0, || {
        PlanData::Gather(GatherPlan::build(grid, |l| a.row_range(l), |l| a.col_range(l), &out_dist))
    })
}

/// Concatenate `pieces` — one locale's row-peer `(indices, values)`
/// slices in ascending peer order, which block alignment keeps globally
/// sorted — into that locale's gathered frontier slice: local row
/// coordinates over `(start, end)`, capacity `(end - start).max(1)`.
/// Records the assembly work under the gather phase of `gctx`.
fn assemble_slice<'s, V: Copy + 's>(
    (start, end): (usize, usize),
    pieces: impl IntoIterator<Item = (&'s [usize], &'s [V])>,
    elem_bytes: u64,
    gctx: &ExecCtx,
) -> Result<SparseVec<V>> {
    let mut inds: Vec<usize> = Vec::new();
    let mut vals: Vec<V> = Vec::new();
    for (piece_inds, piece_vals) in pieces {
        inds.extend(piece_inds.iter().map(|&i| i - start));
        vals.extend_from_slice(piece_vals);
    }
    gctx.record(PHASE_GATHER, |c| {
        c.elems += inds.len() as u64;
        c.bytes_moved += inds.len() as u64 * elem_bytes;
    });
    SparseVec::from_sorted((end - start).max(1), inds, vals)
}

/// The schedule key of every push's row gather. The plan — row peers and
/// mask windows — is a function of the grid alone, not of the batch width
/// or the rule, so a BFS level, an SSSP relaxation and a batch of any `k`
/// over the same matrix replay one plan.
const SOLO_GATHER: (&str, FrontierClass) = ("gather_rows", FrontierClass::Sparse);

/// The row gather every push runs, for `k = rows.len() ≥ 0` sources at
/// once: each locale's row-block slices of every source from its
/// processor row, executing from the compiled [`GatherPlan`] cached under
/// [`SOLO_GATHER`] (the *executor* half of the
/// inspector–executor split — the plan may be freshly built or replayed
/// from the [`crate::ScheduleCache`]; either way this runs the same code,
/// so replay is bit-invisible). One superstep: the plan already says which
/// slices each locale needs from whom, so no request round precedes the
/// transfer. Returns the priced [`Gather`] and, per locale, its `k`
/// assembled slices (local row coordinates, capacity
/// `row_range.len().max(1)`). All comm is logged by the task whose id is
/// the event's source locale, so the log's per-source order is
/// deterministic under the threaded executor.
///
/// * [`CommStrategy::Fine`] — Listing 8 as written: each locale walks its
///   remote row peers' shards element-at-a-time, two dependent remote
///   accesses per nonzero. This is the differential oracle the figures
///   plot blowing up (Figs 8–9).
/// * [`CommStrategy::Bulk`] — one message per remote row peer carrying
///   its shards of all `k` sources, priced from the actual payload width;
///   a peer with nothing to send sends nothing. Latency α is paid once per
///   locale pair, and each locale receives ≤ `pc − 1` messages.
///
/// Both arms then concatenate the shards in ascending peer order — sorted,
/// by block alignment — so they assemble the same slices.
fn gather_rows<B: Copy, V: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<B>,
    rows: &[DistSparseVec<V>],
    strategy: CommStrategy,
    dctx: &DistCtx,
) -> Result<(Gather, Vec<Vec<SparseVec<V>>>)> {
    let (op, class) = SOLO_GATHER;
    let (sched_plan, sched) = row_gather_schedule(a, op, class, dctx);
    let plan = sched_plan.gather();
    let elem_bytes = (std::mem::size_of::<usize>() + std::mem::size_of::<V>()) as u64;
    let (profiles, lxs) = dctx
        .for_each_locale(|l| {
            let gctx = dctx.locale_ctx_for(l);
            let peers = &plan.row_peers[l];
            for &src in peers.iter().filter(|&&src| src != l) {
                let nnz: u64 = rows.iter().map(|x| x.shard(src).nnz() as u64).sum();
                let bytes = nnz * elem_bytes;
                match strategy {
                    CommStrategy::Fine => {
                        dctx.comm.fine_dependent(PHASE_GATHER, l, src, 2 * nnz, bytes)?
                    }
                    CommStrategy::Bulk if nnz > 0 => {
                        dctx.comm.bulk(PHASE_GATHER, l, src, 1, bytes)?
                    }
                    CommStrategy::Bulk => {}
                }
            }
            let slice = |x: &DistSparseVec<V>| {
                let shards = peers.iter().map(|&src| x.shard(src));
                let pieces = shards.map(|shard| (shard.indices(), shard.values()));
                assemble_slice(plan.row_ranges[l], pieces, elem_bytes, &gctx)
            };
            let lxs = rows.iter().map(slice).collect::<Result<Vec<_>>>()?;
            Ok((gctx.take_profile(), lxs))
        })?
        .into_iter()
        .unzip();
    Ok((Gather { profiles, sched, plan: sched_plan }, lxs))
}

/// A mask over the *output* columns of the distributed SpMSpV — the
/// paper's §V future work ("efficient implementations of novel concepts
/// in GraphBLAS, such as masks, have not been attempted in distributed
/// memory before"), implemented here.
///
/// The mask is a dense boolean vector distributed with the same block
/// layout as the output, so each mask bit lives on the locale that owns
/// the corresponding output entry. It is enforced at the *sender*: a
/// locale copies the bits over its column range from their owners (one
/// byte each, one bulk message per remote owner — pull's frontier-bitmap
/// gather) and its local kernel drops a disallowed column at the probe,
/// so a suppressed entry is never claimed, sorted or sent.
#[derive(Debug, Clone, Copy)]
pub struct DistMask<'a> {
    /// The mask bits, block-distributed like the output.
    pub bits: &'a crate::vec::DistDenseVec<bool>,
    /// GraphBLAS `GrB_COMP`: allow where the bit is *false*.
    pub complement: bool,
}

impl<'a> DistMask<'a> {
    /// Allow output entries where the bit is `true`.
    pub fn new(bits: &'a crate::vec::DistDenseVec<bool>) -> Self {
        DistMask { bits, complement: false }
    }

    /// Allow output entries where the bit is `false` (e.g. BFS's
    /// "not yet visited").
    pub fn complement(bits: &'a crate::vec::DistDenseVec<bool>) -> Self {
        DistMask { bits, complement: true }
    }

    /// Copy the bits in `windows` into `buf`: the shared-kernel mask over
    /// their concatenated range.
    fn window<'b>(&self, windows: &[(usize, usize, usize)], buf: &'b mut Vec<bool>) -> VecMask<'b> {
        self.bits.read_windows(windows, buf);
        VecMask::bitmap(buf, self.complement)
    }
}

/// One sender's scatter output: its pooled per-owner outbox, and where
/// each source's claims end in each owner's list (`ends[s * p + owner]`).
type Sent<W> = (WsGuard<Outbox<(usize, W)>>, Vec<usize>);

/// What [`push_engine`] hands back: the per-source outputs and the
/// per-locale profiles of the two components it ran.
struct Pushed<W> {
    /// `rows[s]`: source `s`'s output, block-distributed like the mask.
    rows: Vec<DistSparseVec<W>>,
    local: Vec<Profile>,
    scatter: Vec<Profile>,
}

impl<W> Pushed<W> {
    /// Price gather / local / scatter into `op` and finish it (which
    /// drains and prices the comm log).
    fn finish(&self, mut op: OpTrace<'_>, gather: &Gather) -> SimReport {
        op.spawn(PHASE_GATHER, 1);
        op.compute(PHASE_GATHER, &gather.profiles);
        op.compute_folded(PHASE_LOCAL, &self.local);
        op.compute(PHASE_SCATTER, &self.scatter);
        op.finish()
    }
}

/// The shape checks of a push: every frontier's capacity and distribution
/// against the matrix and machine, one mask per source, and each mask
/// against the output.
fn check_push_operands<B: Copy, V: Copy>(
    a: &DistCsrMatrix<B>,
    xs: &[DistSparseVec<V>],
    masks: Option<&[DistMask<'_>]>,
    dctx: &DistCtx,
) -> Result<()> {
    let p = a.grid().locales();
    for x in xs {
        check_dims("x capacity vs matrix rows", a.nrows(), x.capacity())?;
        check_dims("frontier locales vs grid locales", p, x.locales())?;
    }
    check_dims("machine locales vs grid locales", p, dctx.locales())?;
    if let Some(masks) = masks {
        check_dims("masks vs sources", xs.len(), masks.len())?;
        for m in masks {
            check_dims("mask length vs matrix cols", a.ncols(), m.bits.len())?;
            check_dims("mask locales vs grid locales", p, m.bits.locales())?;
        }
    }
    Ok(())
}

/// The local-multiply and scatter components of the push pipeline for
/// `k ≥ 0` sources at once. `lxs[l]` is locale `l`'s `k` gathered
/// frontier slices (local row coordinates); every source multiplies under
/// `opts` and, when `masks` is given, source `s` under `masks[s]`, whose
/// windows are gathered under `gather`'s plan and charged to its profiles. A
/// scatter claim is priced at its wire width, an `(offset, W)` pair, and
/// travels per `strategy`.
///
/// Every owner's inbox stays grouped by source — sender `l` appends
/// source after source and records where each ends — so a claim is the
/// same `(offset, value)` pair for every `k`, and the drain of source `s`
/// touches only source `s`'s claims.
#[allow(clippy::too_many_arguments)]
fn push_engine<B, V, W, R>(
    a: &DistCsrMatrix<B>,
    lxs: &[Vec<SparseVec<V>>],
    rule: &R,
    masks: Option<&[DistMask<'_>]>,
    opts: SpMSpVOpts,
    strategy: CommStrategy,
    gather: &mut Gather,
    dctx: &DistCtx,
) -> Result<Pushed<W>>
where
    B: Copy + Send + Sync,
    V: Send + Sync,
    W: Copy + Send + Sync + 'static,
    R: PushRule<B, V, W>,
{
    let p = a.grid().locales();
    let n = a.ncols();
    let k = lxs.first().map_or(0, Vec::len);
    let claim_bytes = (std::mem::size_of::<usize>() + std::mem::size_of::<W>()) as u64;

    // ---- Superstep 1, one task per locale. Mask gather: the plan's
    // windows of every nonempty slice's mask, one message per remote owner
    // for all `k` (an empty slice fetches nothing). Local multiply: the
    // shared single-source kernel, once per source, on this locale's block
    // under its mask window — literally the same code on the same operands
    // whatever `k` is, which is what makes a batched row bit-identical to
    // its solo run (locale `l`'s long-lived pool lets the kernel's SPA
    // survive across BFS levels). Then the send side of the scatter: the
    // locale partitions its products into one outbox per owning locale —
    // all `k` sources share it, and therefore one message per pair — and
    // logs its own traffic. The per-destination buffers and the fan-out
    // histogram come from the locale pool and are reused superstep after
    // superstep.
    let out_dist = BlockDist::new(n, p);
    let windows = &gather.plan.gather().mask_windows;
    let mut local: Vec<Profile> = Vec::with_capacity(p);
    let mut scatter: Vec<Profile> = Vec::with_capacity(p);
    let mut sent: Vec<Sent<W>> = Vec::with_capacity(p);
    let pushed = dctx.for_each_locale(|l| {
        let row_range = a.row_range(l);
        let col_range = a.col_range(l);
        let masked = |lx: &SparseVec<V>| masks.filter(|_| lx.nnz() > 0);
        let fetched = lxs[l].iter().filter(|lx| masked(lx).is_some()).count();
        for &(owner, lo, hi) in windows[l].iter().filter(|w| w.0 != l && fetched > 0) {
            dctx.comm.bulk(PHASE_GATHER, l, owner, 1, (fetched * (hi - lo)) as u64)?;
        }
        let lctx = dctx.locale_ctx_for(l);
        // Every kernel returns its scratch before the outbox is checked
        // out, so the locale pool sees the same checkout sequence for any
        // `k` (the goldens pin the pool telemetry).
        let mut bits: Vec<bool> = Vec::new();
        let mut products: Vec<SparseVec<W>> = Vec::with_capacity(k);
        for (s, lx) in lxs[l].iter().enumerate() {
            let mask = masked(lx).map(|per_source| per_source[s].window(&windows[l], &mut bits));
            products.push(if row_range.is_empty() || col_range.is_empty() {
                SparseVec::new(col_range.len().max(1))
            } else {
                rule.multiply_block(a.block(l), lx, row_range.start, mask.as_ref(), opts, &lctx)?
            });
        }
        let sctx = dctx.locale_ctx_for(l);
        let mut c = Counters::default();
        let mut outbox = sctx.ws_nested_vec::<(usize, W)>(p);
        let mut per_dst = sctx.ws_filled_vec::<u64>(p, 0);
        let mut ends: Vec<usize> = Vec::with_capacity(k * p);
        for ly in &products {
            for (lj, &v) in ly.iter() {
                let col = lj + col_range.start;
                let owner = out_dist.owner(col);
                if owner != l {
                    per_dst[owner] += 1;
                }
                c.atomics += 1; // the remote/local atomic test-and-set
                outbox[owner].push((col - out_dist.range(owner).start, v));
            }
            ends.extend(outbox.iter().map(Vec::len));
        }
        for (dst, &msgs) in per_dst.iter().enumerate() {
            if msgs > 0 {
                let bytes = msgs * claim_bytes;
                match strategy {
                    CommStrategy::Fine => dctx.comm.fine(PHASE_SCATTER, l, dst, msgs, bytes)?,
                    CommStrategy::Bulk => dctx.comm.bulk(PHASE_SCATTER, l, dst, 1, bytes)?,
                }
            }
        }
        sctx.record(PHASE_SCATTER, |pc| pc.merge(&c));
        let copied = (fetched * col_range.len()) as u64;
        let mask_gather = Counters { elems: copied, bytes_moved: copied, ..Counters::default() };
        Ok((mask_gather, lctx.take_profile(), sctx.take_profile(), (outbox, ends)))
    })?;
    for (l, (mask_gather, local_profile, send_profile, outbox)) in pushed.into_iter().enumerate() {
        gather.profiles[l].counters_mut(PHASE_GATHER).merge(&mask_gather);
        local.push(local_profile);
        scatter.push(send_profile);
        sent.push(outbox);
    }

    // ---- Superstep 2, the owner side of the scatter: per source, each
    // owner drains its inboxes into its *own* dense SPA segment — no
    // cross-locale writes — in source-locale order, so the rule resolves
    // competing claims exactly as the serial schedule does. Every claim
    // was allowed by its sender. Finishes with the owner's denseToSparse
    // scan.
    let (apply, owner_shards): (Vec<Profile>, Vec<Vec<SparseVec<W>>>) = dctx
        .for_each_locale(|o| {
            let octx = dctx.locale_ctx_for(o);
            let range = out_dist.range(o);
            let mut c = Counters::default();
            let mut shards: Vec<SparseVec<W>> = Vec::with_capacity(k);
            for s in 0..k {
                let mut occupied = octx.ws_filled_vec::<bool>(range.len(), false);
                let mut value = octx.ws_filled_vec::<W>(range.len(), rule.zero());
                for (outbox, ends) in &sent {
                    let start = if s == 0 { 0 } else { ends[(s - 1) * p + o] };
                    for &(off, v) in &outbox[o][start..ends[s * p + o]] {
                        if !occupied[off] {
                            occupied[off] = true;
                            value[off] = v;
                        } else if let Some(combined) = rule.combine(value[off], v) {
                            value[off] = combined;
                            c.flops += 1;
                        }
                    }
                }
                let mut inds = Vec::new();
                let mut vals = Vec::new();
                for (off, &set) in occupied.iter().enumerate() {
                    if set {
                        inds.push(range.start + off);
                        vals.push(value[off]);
                    }
                }
                c.elems += range.len() as u64;
                shards.push(SparseVec::from_sorted(n, inds, vals)?);
            }
            octx.record(PHASE_SCATTER, |pc| pc.merge(&c));
            Ok((octx.take_profile(), shards))
        })?
        .into_iter()
        .unzip();
    // Each locale's scatter profile is its send-side work plus its
    // owner-side work (merged in that order).
    for (send, owner) in scatter.iter_mut().zip(&apply) {
        send.merge(owner);
    }
    let mut owners: Vec<_> = owner_shards.into_iter().map(Vec::into_iter).collect();
    let rows = (0..k)
        .map(|_| {
            DistSparseVec::from_shards(n, owners.iter_mut().flat_map(Iterator::next).collect())
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Pushed { rows, local, scatter })
}

/// The one push every sparse-frontier entry point runs, for `k =
/// xs.len() ≥ 0` sources: validate, gather, push every source under the
/// caller's one `opts` (so every locale runs the same merge), and price the
/// report into the rule's op span. Its attributes are the strategy, the
/// merge, the shape, `masked` (only when true), the schedule outcome and
/// the batch's nnz. Nothing here depends on `k`: a single source is a batch
/// of one, priced as one.
pub(crate) fn push<B, V, W, R>(
    a: &DistCsrMatrix<B>,
    xs: &[DistSparseVec<V>],
    rule: &R,
    masks: Option<&[DistMask<'_>]>,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(Vec<DistSparseVec<W>>, SimReport)>
where
    B: Copy + Send + Sync,
    V: Copy + Send + Sync + 'static,
    W: Copy + Send + Sync + 'static,
    R: PushRule<B, V, W>,
{
    let mut op = dctx.op(R::OP); // the wall clock starts with the op
    check_push_operands(a, xs, masks, dctx)?;
    let (mut gather, lxs) = gather_rows(a, xs, strategy, dctx)?;
    let pushed = push_engine(a, &lxs, rule, masks, opts, strategy, &mut gather, dctx)?;
    let strategy_name = match strategy {
        CommStrategy::Fine => "fine",
        CommStrategy::Bulk => "bulk",
    };
    op.attr("strategy", strategy_name).attr("merge", opts.merge.name());
    op.attr("nrows", a.nrows()).attr("ncols", a.ncols());
    if masks.is_some() {
        op.attr("masked", true);
    }
    op.sched(gather.sched).nnz(xs.iter().map(|x| x.nnz() as u64).sum());
    let report = pushed.finish(op, &gather);
    Ok((pushed.rows, report))
}

/// Listing 8 as written: fine-grained gather and scatter.
pub fn spmspv_dist<T: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<T>,
    x: &DistSparseVec<T>,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    spmspv_dist_with(a, x, None, CommStrategy::Fine, SpMSpVOpts::default(), dctx)
}

/// The bulk-synchronous variant (ablation; §IV).
pub fn spmspv_dist_bulk<T: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<T>,
    x: &DistSparseVec<T>,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    spmspv_dist_with(a, x, None, CommStrategy::Bulk, SpMSpVOpts::default(), dctx)
}

/// Full-control first-visitor entry point, with an optional output mask
/// ([`DistMask`]). The frontier's value type `V` is independent of the
/// matrix type — first-visitor semantics never read the values.
pub fn spmspv_dist_with<T: Copy + Send + Sync, V: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<T>,
    x: &DistSparseVec<V>,
    mask: Option<DistMask<'_>>,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    let (xs, masks) = (std::slice::from_ref(x), mask.as_ref().map(std::slice::from_ref));
    let (ys, report) = push(a, xs, &FirstVisitor, masks, strategy, opts, dctx)?;
    Ok((only(ys)?, report))
}

/// The one output of a single-source push or single-column SpMV.
pub(crate) fn only<W>(ys: Vec<W>) -> Result<W> {
    ys.into_iter()
        .next()
        .ok_or_else(|| GblasError::InvalidContainer("an op returned no output row".into()))
}

/// General-semiring distributed SpMSpV: `y[j] = ⊕_i x[i] ⊗ A[i,j]` with
/// true accumulation — contributions from different grid rows to the same
/// output column are combined with the add monoid *at the owning locale*
/// (the scatter carries values, and the owner accumulates instead of
/// keeping the first claim). Same three components as [`spmspv_dist`];
/// this is what distributed SSSP needs (min-plus).
///
/// `opts` picks the local kernel's merge, and the optional output mask is
/// enforced at the sender exactly like the first-visitor kernel's
/// ([`DistMask`]): a disallowed product is never accumulated, sorted or
/// sent.
pub fn spmspv_dist_semiring_with<A, B, C, AddM, MulOp>(
    a: &DistCsrMatrix<B>,
    x: &DistSparseVec<A>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<DistMask<'_>>,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<C>, SimReport)>
where
    A: Copy + Send + Sync + 'static,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + PartialEq + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let (xs, masks) = (std::slice::from_ref(x), mask.as_ref().map(std::slice::from_ref));
    let (ys, report) = push(a, xs, ring, masks, strategy, opts, dctx)?;
    Ok((only(ys)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::error::GblasError;
    use gblas_core::gen;
    use gblas_core::ops::spmspv::spmspv_first_visitor;
    use gblas_sim::MachineConfig;

    fn machine_for(grid: ProcGrid) -> MachineConfig {
        MachineConfig::edison_cluster(grid.locales(), 24)
    }

    /// Shared-memory reference (serial first-visitor).
    fn reference(
        a: &gblas_core::container::CsrMatrix<f64>,
        x: &SparseVec<f64>,
    ) -> SparseVec<usize> {
        let ctx = gblas_core::par::ExecCtx::serial();
        spmspv_first_visitor(a, x, None, SpMSpVOpts::default(), &ctx).unwrap()
    }

    #[test]
    fn reached_set_matches_reference_at_every_grid() {
        let n = 600;
        let a = gen::erdos_renyi(n, 6, 55);
        let x = gen::random_sparse_vec(n, 40, 56);
        let expect = reference(&a, &x);
        for (pr, pc) in [(1, 1), (1, 4), (2, 2), (4, 2), (3, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, grid.locales());
            let dctx = DistCtx::new(machine_for(grid));
            let (y, _) = spmspv_dist(&da, &dx, &dctx).unwrap();
            let yg = y.to_global();
            assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc}");
            // parents must be legitimate: x[parent] stored, A[parent, col] stored
            for (col, &rid) in yg.iter() {
                assert!(x.get(rid).is_some(), "grid {pr}x{pc}: parent {rid} not in frontier");
                assert!(a.get(rid, col).is_some(), "grid {pr}x{pc}: A[{rid},{col}] missing");
            }
        }
    }

    #[test]
    fn bulk_variant_same_result_fewer_messages() {
        let n = 500;
        let a = gen::erdos_renyi(n, 8, 65);
        let x = gen::random_sparse_vec(n, 50, 66);
        let grid = ProcGrid::new(2, 4);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 8);

        let d_fine = DistCtx::new(machine_for(grid));
        let (y_fine, r_fine) = spmspv_dist(&da, &dx, &d_fine).unwrap();
        let d_bulk = DistCtx::new(machine_for(grid));
        d_bulk.comm.record_history();
        let (y_bulk, r_bulk) = spmspv_dist_bulk(&da, &dx, &d_bulk).unwrap();

        assert_eq!(y_fine.to_global().indices(), y_bulk.to_global().indices());
        let (fine_msgs, _, _) = d_fine.comm.totals();
        let (_, bulk_msgs, _) = d_bulk.comm.totals();
        assert!(fine_msgs > 5 * bulk_msgs, "{fine_msgs} fine vs {bulk_msgs} bulk");
        // Aggregation guarantee: each locale receives at most one gather
        // message per remote row peer, in one superstep.
        let p = grid.locales();
        let peers = grid.pc() - 1;
        let gather_msgs: u64 =
            d_bulk.comm.history().iter().filter(|e| e.phase == PHASE_GATHER).map(|e| e.msgs).sum();
        assert!(
            gather_msgs <= (p * peers) as u64,
            "{gather_msgs} gather msgs > {p} locales x {peers} peers"
        );
        // and the simulated comm time reflects it
        let fine_comm = r_fine.phase(PHASE_GATHER) + r_fine.phase(PHASE_SCATTER);
        let bulk_comm = r_bulk.phase(PHASE_GATHER) + r_bulk.phase(PHASE_SCATTER);
        assert!(fine_comm > bulk_comm, "{fine_comm} vs {bulk_comm}");
    }

    #[test]
    fn report_has_three_components() {
        let a = gen::erdos_renyi(300, 5, 75);
        let x = gen::random_sparse_vec(300, 30, 76);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(machine_for(grid));
        let (_, r) = spmspv_dist(
            &DistCsrMatrix::from_global(&a, grid),
            &DistSparseVec::from_global(&x, 4),
            &dctx,
        )
        .unwrap();
        for phase in [PHASE_GATHER, PHASE_LOCAL, PHASE_SCATTER] {
            assert!(r.phase(phase) > 0.0, "phase {phase} missing");
        }
    }

    #[test]
    fn fig9_shape_gather_dominates_at_scale_local_multiply_scales() {
        // n scaled down from the paper's 10M, same relative structure.
        let n = 20_000;
        let a = gen::erdos_renyi(n, 16, 85);
        let x = gen::random_sparse_vec(n, n / 50, 86); // f = 2%
        let run = |p: usize| {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dctx = DistCtx::new(machine_for(grid));
            let (_, r) = spmspv_dist(&da, &dx, &dctx).unwrap();
            r
        };
        let r1 = run(1);
        let r16 = run(16);
        // local multiply speeds up with nodes
        assert!(
            r16.phase(PHASE_LOCAL) < r1.phase(PHASE_LOCAL) / 2.0,
            "local: {} -> {}",
            r1.phase(PHASE_LOCAL),
            r16.phase(PHASE_LOCAL)
        );
        // gather grows enormously once data is remote
        assert!(
            r16.phase(PHASE_GATHER) > 10.0 * r1.phase(PHASE_GATHER),
            "gather: {} -> {}",
            r1.phase(PHASE_GATHER),
            r16.phase(PHASE_GATHER)
        );
        // and dominates the total
        assert!(r16.phase(PHASE_GATHER) > r16.phase(PHASE_LOCAL));
    }

    #[test]
    fn semiring_dist_matches_shared_semiring_at_every_grid() {
        let n = 500;
        let a = gen::erdos_renyi(n, 6, 145);
        let x = gen::random_sparse_vec(n, 35, 146);
        let ring = gblas_core::algebra::semirings::plus_times_f64();
        let expect = gblas_core::ops::spmspv::spmspv_semiring(
            &a,
            &x,
            &ring,
            &gblas_core::par::ExecCtx::serial(),
        )
        .unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                let dctx = DistCtx::new(machine_for(grid));
                let opts = SpMSpVOpts::default();
                let (y, report) =
                    spmspv_dist_semiring_with(&da, &dx, &ring, None, strategy, opts, &dctx)
                        .unwrap();
                let yg = y.to_global();
                assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc} {strategy:?}");
                for (got, want) in yg.values().iter().zip(expect.values()) {
                    assert!((got - want).abs() < 1e-9, "grid {pr}x{pc}");
                }
                assert!(report.total() > 0.0);
            }
        }
    }

    #[test]
    fn semiring_dist_min_plus_relaxation() {
        // one min-plus step on a weighted path graph, distributed
        let a = gblas_core::container::CsrMatrix::from_triplets(
            6,
            6,
            &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0)],
        )
        .unwrap();
        let x = SparseVec::from_sorted(6, vec![0, 1], vec![0.0, 2.0]).unwrap();
        let ring = gblas_core::algebra::semirings::min_plus();
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 6);
        let dctx = DistCtx::new(machine_for(grid));
        let (bulk, opts) = (CommStrategy::Bulk, SpMSpVOpts::default());
        let (y, _) = spmspv_dist_semiring_with(&da, &dx, &ring, None, bulk, opts, &dctx).unwrap();
        let yg = y.to_global();
        // y[1] = 0+2 = 2; y[2] = min(0+10, 2+3) = 5
        assert_eq!(yg.indices(), &[1, 2]);
        assert_eq!(yg.values(), &[2.0, 5.0]);
    }

    #[test]
    fn masked_spmspv_excludes_and_matches_shared_mask() {
        use crate::vec::DistDenseVec;
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 125);
        let x = gen::random_sparse_vec(n, 30, 126);
        // mask: allow only columns not divisible by 3
        let bits = gblas_core::container::DenseVec::from_fn(n, |i| i % 3 == 0);
        // shared-memory reference with the complemented mask
        let shared_mask = gblas_core::mask::VecMask::dense(&bits).complement();
        let expect = spmspv_first_visitor(
            &a,
            &x,
            Some(&shared_mask),
            SpMSpVOpts::default(),
            &gblas_core::par::ExecCtx::serial(),
        )
        .unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dbits = DistDenseVec::from_global(&bits, p);
            let dctx = DistCtx::new(machine_for(grid));
            let mask = Some(DistMask::complement(&dbits));
            let (y, report) =
                spmspv_dist_with(&da, &dx, mask, CommStrategy::Fine, SpMSpVOpts::default(), &dctx)
                    .unwrap();
            let yg = y.to_global();
            assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc}");
            assert!(yg.indices().iter().all(|&j| j % 3 != 0));
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn masked_semiring_matches_shared_masked_semiring() {
        use crate::vec::DistDenseVec;
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 155);
        let x = gen::random_sparse_vec(n, 30, 156);
        let ring = gblas_core::algebra::semirings::plus_times_f64();
        let bits = gblas_core::container::DenseVec::from_fn(n, |i| i % 3 == 0);
        let shared_mask = gblas_core::mask::VecMask::dense(&bits).complement();
        let expect = gblas_core::ops::spmspv::spmspv_semiring_masked(
            &a,
            &x,
            &ring,
            Some(&shared_mask),
            SpMSpVOpts::default(),
            &gblas_core::par::ExecCtx::serial(),
        )
        .unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dbits = DistDenseVec::from_global(&bits, p);
            for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                let dctx = DistCtx::new(machine_for(grid));
                let (y, report) = spmspv_dist_semiring_with(
                    &da,
                    &dx,
                    &ring,
                    Some(DistMask::complement(&dbits)),
                    strategy,
                    SpMSpVOpts::default(),
                    &dctx,
                )
                .unwrap();
                let yg = y.to_global();
                assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc} {strategy:?}");
                assert!(yg.indices().iter().all(|&j| j % 3 != 0));
                for (got, want) in yg.values().iter().zip(expect.values()) {
                    assert!((got - want).abs() < 1e-9, "grid {pr}x{pc}");
                }
                assert!(report.total() > 0.0);
            }
        }
    }

    #[test]
    fn masked_spmspv_validates_mask_shape() {
        use crate::vec::DistDenseVec;
        let a = gen::erdos_renyi(100, 4, 135);
        let x = gen::random_sparse_vec(100, 10, 136);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 4);
        let dctx = DistCtx::new(machine_for(grid));
        let masked = |bits: &DistDenseVec<bool>| {
            let (fine, opts) = (CommStrategy::Fine, SpMSpVOpts::default());
            spmspv_dist_with(&da, &dx, Some(DistMask::new(bits)), fine, opts, &dctx)
        };
        // wrong length
        assert!(masked(&DistDenseVec::filled(99, true, 4)).is_err());
        // wrong locale count
        assert!(masked(&DistDenseVec::filled(100, true, 2)).is_err());
    }

    #[test]
    fn dimension_and_locale_mismatches() {
        let a = gen::erdos_renyi(100, 4, 95);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let x_bad_cap = gen::random_sparse_vec(99, 5, 96);
        let dctx = DistCtx::new(machine_for(grid));
        assert!(spmspv_dist(&da, &DistSparseVec::from_global(&x_bad_cap, 4), &dctx).is_err());
        let x_bad_p = gen::random_sparse_vec(100, 5, 97);
        assert!(spmspv_dist(&da, &DistSparseVec::from_global(&x_bad_p, 2), &dctx).is_err());
    }

    #[test]
    fn comm_fault_propagates() {
        let a = gen::erdos_renyi(200, 5, 105);
        let x = gen::random_sparse_vec(200, 20, 106);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(machine_for(grid));
        dctx.comm.fail_after(0);
        let r = spmspv_dist(
            &DistCsrMatrix::from_global(&a, grid),
            &DistSparseVec::from_global(&x, 4),
            &dctx,
        );
        assert!(matches!(r, Err(GblasError::CommFailure(_))));
    }

    #[test]
    fn empty_frontier() {
        let a = gen::erdos_renyi(100, 4, 115);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(machine_for(grid));
        let x = DistSparseVec::<f64>::empty(100, 4);
        let (y, _) = spmspv_dist(&DistCsrMatrix::from_global(&a, grid), &x, &dctx).unwrap();
        assert_eq!(y.nnz(), 0);
    }
}
