//! The backend trait: one algorithm layer, many execution substrates.
//!
//! The paper's central structural lesson (§IV) is that *algorithms* should
//! be written once against GraphBLAS primitives while *backends* encode
//! locality — its Apply1/Assign1 versions are the same algorithm text as
//! Apply2/Assign2, differing only in how the backend maps iterations to
//! locales. [`GblasBackend`] makes that split a compile-time contract: a
//! graph algorithm is a single generic function over `B: GblasBackend`,
//! and the choice of shared-memory ([`SharedBackend`]) or simulated
//! distributed memory (`gblas_dist::backend::DistBackend`) is made at the
//! call site, exactly like CombBLAS 2.0's process/thread backends.
//!
//! What lives on which side of the line:
//!
//! * **algorithm layer** — iteration structure, frontier logic,
//!   convergence tests, per-vertex driver state (levels, labels,
//!   distances). Driver state is small and global by construction; the
//!   distributed backend treats it as replicated control state, which is
//!   what the paper's Chapel driver loops do implicitly.
//! * **backend layer** — containers ([`GblasBackend::Matrix`],
//!   [`GblasBackend::SparseVec`], [`GblasBackend::DenseVec`]), the
//!   primitive ops (SpMSpV / SpMV / SpGEMM / transpose / select / map /
//!   reduce) with masks and semirings, and all cost accounting: the
//!   distributed backend threads `CommStrategy`, `SpMSpVOpts`, and the
//!   `SimReport` ledger through every call; the shared backend charges its
//!   instrumented `ExecCtx`.
//!
//! Masks cross the boundary as [`MaskSpec`] — a dense boolean vector in
//! the backend's own layout plus a complement flag — so `q⟨¬visited⟩ =
//! Aᵀq` reads identically whether the bits live in one address space or
//! are block-distributed with the output.

use crate::algebra::{BinaryOp, ComMonoid, Monoid, Scalar, Semiring};
use crate::container::{CsrMatrix, DenseVec, SparseVec};
use crate::error::{check_dims, GblasError, Result};
use crate::mask::VecMask;
use crate::ops;
use crate::ops::spmspv::SpMSpVOpts;
use crate::par::ExecCtx;

/// A dense boolean output mask in the backend's native vector layout.
///
/// `complement = true` is GraphBLAS `GrB_COMP`: allow where the bit is
/// *false* (BFS's "not yet visited").
#[derive(Debug, Clone, Copy)]
pub struct MaskSpec<'a, V> {
    /// The mask bits, in the backend's dense-vector representation.
    pub bits: &'a V,
    /// Allow where the bit is `false` instead of `true`.
    pub complement: bool,
}

impl<'a, V> MaskSpec<'a, V> {
    /// Allow output entries where the bit is `true`.
    pub fn new(bits: &'a V) -> Self {
        MaskSpec { bits, complement: false }
    }

    /// Allow output entries where the bit is `false`.
    pub fn complement(bits: &'a V) -> Self {
        MaskSpec { bits, complement: true }
    }
}

/// A GraphBLAS execution backend: containers plus the primitive operation
/// set, with all locality and accounting decisions behind the interface.
///
/// Predicates and map functions always receive **global** coordinates —
/// the distributed backend translates block-local positions before calling
/// them, so algorithm code never sees the partition.
pub trait GblasBackend {
    /// Sparse matrix in this backend's layout.
    type Matrix<T: Scalar>;
    /// Sparse vector in this backend's layout.
    type SparseVec<T: Scalar>;
    /// Dense vector in this backend's layout.
    type DenseVec<T: Scalar>;

    // ---- matrix queries ----------------------------------------------

    /// Number of matrix rows.
    fn mat_nrows<T: Scalar>(&self, a: &Self::Matrix<T>) -> usize;
    /// Number of matrix columns.
    fn mat_ncols<T: Scalar>(&self, a: &Self::Matrix<T>) -> usize;
    /// Number of stored entries.
    fn mat_nnz<T: Scalar>(&self, a: &Self::Matrix<T>) -> usize;

    // ---- structural matrix ops ---------------------------------------

    /// `Apply` with coordinates: `B[i,j] = f(i, j, A[i,j])` over stored
    /// entries, possibly changing the value type. Local on every backend.
    fn mat_map<T: Scalar, U: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        f: &(impl Fn(usize, usize, T) -> U + Sync),
    ) -> Result<Self::Matrix<U>>;

    /// `GrB_select`: keep the stored entries where `pred(i, j, v)` holds.
    fn mat_select<T: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        pred: &(impl Fn(usize, usize, T) -> bool + Sync),
    ) -> Result<Self::Matrix<T>>;

    /// `B = Aᵀ`.
    fn mat_transpose<T: Scalar>(&self, a: &Self::Matrix<T>) -> Result<Self::Matrix<T>>;

    /// Masked SpGEMM: `C⟨M⟩ = A ⊗ B` (structural mask intersection).
    ///
    /// With an emit `rule`, each finished entry `(i, j, v)` of the masked
    /// product is stored as `rule(i, j, v)` maps it, or dropped on `None`:
    /// `mat_select(mat_map(C))` fused into the multiply, so what the rule
    /// drops is never stored. It sees only *finished* entries — never a
    /// stage's partial sum — exactly once each and in no specified order,
    /// so it must be pure. `None::<&ops::mxm::NoRule<C>>` is the plain
    /// multiply.
    fn mxm_masked<A, B, C, AddM, MulOp, M>(
        &self,
        a: &Self::Matrix<A>,
        b: &Self::Matrix<B>,
        ring: &Semiring<AddM, MulOp>,
        mask: Option<&Self::Matrix<M>>,
        rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    ) -> Result<Self::Matrix<C>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        M: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>;

    /// Row-wise reduction `y[i] = ⊕_j A[i,j]`, returned as a *global*
    /// driver-side vector (identity for empty rows). Block partials are
    /// combined in ascending column-block order, i.e. the serial fold
    /// order — exact for the integer-valued data the algorithms feed it.
    fn reduce_rows<T: Scalar, M>(&self, a: &Self::Matrix<T>, monoid: &M) -> Result<Vec<T>>
    where
        M: Monoid<T>;

    /// Whole-matrix reduction `⊕_{ij} A[i,j]` with a commutative monoid.
    fn reduce_mat<T: Scalar, M>(&self, a: &Self::Matrix<T>, monoid: &M) -> Result<T>
    where
        M: ComMonoid<T>;

    /// Stored entries per row, `deg[i] = nnz(A[i,:])` (a digraph's
    /// out-degrees), as a *global* driver-side vector. Read from the
    /// structure alone: equal to `reduce_rows(mat_map(a, 1), Plus)`
    /// without building the ones-matrix or touching a value, at
    /// `O(nrows)` local work per block plus, on the distributed backend,
    /// the row-leader combine of [`GblasBackend::reduce_rows`].
    fn mat_row_degrees<T: Scalar>(&self, a: &Self::Matrix<T>) -> Result<Vec<usize>>;

    // ---- vector kernels ----------------------------------------------

    /// Masked SpMSpV over `k = xs.len() ≥ 0` sources at once (the CombBLAS
    /// 2.0 `n×k` frontier; a single source is `slice::from_ref(&x)`):
    /// `ys[s]⟨masks[s]⟩ = xs[s] A` under `rule`. [`FirstVisitor`] is BFS's
    /// push: per reached column, the smallest global row id among
    /// `xs[s]`'s rows reaching it, the frontier's values ignored. A
    /// [`Semiring`] accumulates `ys[s][j] = ⊕_i xs[s][i] ⊗ A[i,j]`. `ys[s]`
    /// is laid out like `xs[s]` — a BFS level's output is the next level's
    /// frontier as it stands. `masks`, when given, holds one mask per
    /// source, each with its own polarity. Row `s` is bit-identical to the
    /// push of source `s` alone.
    fn spmspv<T, V, W, R>(
        &self,
        a: &Self::Matrix<T>,
        xs: &[Self::SparseVec<V>],
        rule: &R,
        masks: Option<&[MaskSpec<'_, Self::DenseVec<bool>>]>,
        opts: SpMSpVOpts,
    ) -> Result<Vec<Self::SparseVec<W>>>
    where
        T: Scalar,
        V: Scalar,
        W: Scalar,
        R: PushRule<T, V, W>;

    /// Dense SpMV over `k = xs.len() ≥ 0` columns at once (the dense `n×k`
    /// operand; a single column is `slice::from_ref(&x)`), in the column
    /// orientation the algorithms use: `ys[s][j] = ⊕_i xs[s][i] ⊗ A[i,j]`
    /// (`y = x A`). Column `s` is bit-identical to the SpMV of that column
    /// alone.
    fn spmv<A, B, C, AddM, MulOp>(
        &self,
        a: &Self::Matrix<B>,
        xs: &[Self::DenseVec<A>],
        ring: &Semiring<AddM, MulOp>,
    ) -> Result<Vec<Self::DenseVec<C>>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>;

    // ---- adaptive selection ------------------------------------------

    /// Pull-direction BFS kernel over `a`'s in-neighbours: for each
    /// **unvisited** destination, claim its minimum in-`frontier`
    /// in-neighbor as parent (early exit per row). Takes the push's sparse
    /// frontier (its values ignored) and is bit-identical, layout included,
    /// to [`GblasBackend::spmspv`] under [`FirstVisitor`] over the same `a`
    /// and the complement-of-visited mask — the contract the
    /// direction-optimizing traversals rely on when they switch
    /// mid-traversal. The backend owns the frontier's bitmap and the
    /// orientation: the shared one scans the matrix's kept
    /// [`crate::container::InNeighbours`] (built at its first pull, an
    /// error for a matrix too large to keep them), the distributed one a
    /// transpose it builds at its first pull over `a` and keeps for its
    /// own life.
    fn pull_first_visitor<T: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        frontier: &Self::SparseVec<usize>,
        visited: &Self::DenseVec<bool>,
    ) -> Result<Self::SparseVec<usize>>;

    /// The selection thresholds tuned for this backend's machine. The
    /// default (and every shared-memory backend) is the Beamer constants;
    /// the distributed backend scales them by its locale count
    /// ([`ops::selection::SelectionThresholds::for_locales`]) because
    /// communication, not local compute, dominates its per-level cost.
    fn selection_thresholds(&self) -> ops::selection::SelectionThresholds {
        ops::selection::SelectionThresholds::default()
    }

    /// Record one adaptive-selection decision as a `select` trace span
    /// with `algo`/`iter`/`dir`/`nnz`/`unexplored` attributes. The
    /// distributed backend also prices the `⌈log₂ p⌉`-round allreduce that
    /// makes the globally-agreed density counts real communication,
    /// exactly like [`GblasBackend::allreduce_scalar`].
    fn record_decision(
        &self,
        algo: &'static str,
        iter: usize,
        dir: ops::selection::Direction,
        nnz_f: usize,
        unexplored: usize,
    ) -> Result<()>;

    // ---- driver <-> backend data movement ----------------------------

    /// A dense vector of `len` copies of `fill`.
    fn dense_filled<T: Scalar>(&self, len: usize, fill: T) -> Self::DenseVec<T>;

    /// Import a global driver-side vector into the backend layout.
    fn dense_from_vec<T: Scalar>(&self, v: Vec<T>) -> Self::DenseVec<T>;

    /// Export a backend vector to a global driver-side vector, consuming
    /// it: the shared backend hands over its buffer, the distributed one
    /// concatenates the segments.
    fn dense_to_vec<T: Scalar>(&self, v: Self::DenseVec<T>) -> Vec<T>;

    /// Point update `v[i] = value` (driver-side control state; the
    /// distributed backend pokes the owning locale's segment).
    fn dense_set<T: Scalar>(&self, v: &mut Self::DenseVec<T>, i: usize, value: T);

    /// Build a sparse vector from globally-sorted `(indices, values)`.
    fn sparse_from_sorted<T: Scalar>(
        &self,
        capacity: usize,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self::SparseVec<T>>;

    /// Export the stored entries in ascending global index order.
    fn sparse_entries<T: Scalar>(&self, x: &Self::SparseVec<T>) -> Vec<(usize, T)>;

    /// Number of stored entries.
    fn sparse_nnz<T: Scalar>(&self, x: &Self::SparseVec<T>) -> usize;

    // ---- accounting ---------------------------------------------------

    /// Charge one global scalar decision (a convergence flag, a dangling
    /// sum) to the ledger under `phase`. The shared backend is a no-op;
    /// the distributed backend prices a `⌈log₂ p⌉`-round binomial tree.
    fn allreduce_scalar(&self, phase: &'static str) -> Result<()>;
}

/// What distinguishes one sparse push from another: the shared-memory
/// single-source kernel run on one block of `A` (the whole matrix on the
/// shared backend, a locale's block on the distributed one), and how an
/// owner resolves claims competing for one output entry. `B` is the
/// matrix type, `V` the frontier's, `W` what a claim carries.
pub trait PushRule<B, V, W>: Sync {
    /// The distributed op span every push under this rule is priced into,
    /// for any `k`.
    const OP: &'static str;

    /// The local multiply on `block`, whose first row is global row
    /// `row_start`, under the block's window of the output mask and the
    /// caller's `opts`: per reached allowed local column, the value its
    /// claim carries.
    fn multiply_block(
        &self,
        block: &CsrMatrix<B>,
        x: &SparseVec<V>,
        row_start: usize,
        mask: Option<&VecMask<'_>>,
        opts: SpMSpVOpts,
        ctx: &ExecCtx,
    ) -> Result<SparseVec<W>>;

    /// Fill value of the owner's dense segment (never read unoccupied).
    fn zero(&self) -> W;

    /// A claim reached an entry that already holds `occupant`: `Some` is
    /// the combined value replacing it (one flop), `None` keeps it.
    fn combine(&self, occupant: W, claim: W) -> Option<W>;
}

/// First-visitor push (BFS, the paper's "row index as value"): the claim
/// is the global parent row, and the first one an owner drains — lowest
/// source block, hence lowest row — stays.
#[derive(Debug, Clone, Copy)]
pub struct FirstVisitor;

impl<B: Send + Sync, V: Send + Sync> PushRule<B, V, usize> for FirstVisitor {
    const OP: &'static str = "spmspv_dist";

    fn multiply_block(
        &self,
        block: &CsrMatrix<B>,
        x: &SparseVec<V>,
        row_start: usize,
        mask: Option<&VecMask<'_>>,
        opts: SpMSpVOpts,
        ctx: &ExecCtx,
    ) -> Result<SparseVec<usize>> {
        let mut parents = ops::spmspv::spmspv_first_visitor(block, x, mask, opts, ctx)?;
        parents.values_mut().iter_mut().for_each(|local_row| *local_row += row_start);
        Ok(parents)
    }

    fn zero(&self) -> usize {
        0
    }

    fn combine(&self, _first: usize, _later: usize) -> Option<usize> {
        None
    }
}

/// Semiring push (SSSP, PPR, CC, MIS, BC): the claim is a partial sum, and
/// the owner accumulates it with the add monoid in source-block order.
impl<A, B, C, AddM, MulOp> PushRule<B, A, C> for Semiring<AddM, MulOp>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    const OP: &'static str = "spmspv_dist_semiring";

    fn multiply_block(
        &self,
        block: &CsrMatrix<B>,
        x: &SparseVec<A>,
        _row_start: usize,
        mask: Option<&VecMask<'_>>,
        opts: SpMSpVOpts,
        ctx: &ExecCtx,
    ) -> Result<SparseVec<C>> {
        ops::spmspv::spmspv_semiring_masked(block, x, self, mask, opts, ctx)
    }

    fn zero(&self) -> C {
        self.add.identity()
    }

    fn combine(&self, occupant: C, claim: C) -> Option<C> {
        Some(self.accumulate(occupant, claim))
    }
}

/// The shared-memory backend: plain CSR containers driven by an
/// instrumented [`ExecCtx`]. All ops delegate to `gblas_core::ops`.
#[derive(Debug, Clone, Copy)]
pub struct SharedBackend<'a> {
    /// The execution context every op runs under.
    pub ctx: &'a ExecCtx,
}

impl<'a> SharedBackend<'a> {
    /// Wrap an execution context as a backend.
    pub fn new(ctx: &'a ExecCtx) -> Self {
        SharedBackend { ctx }
    }
}

/// Convert a backend mask into the shared kernels' [`VecMask`].
fn vec_mask<'m>(m: &MaskSpec<'m, DenseVec<bool>>) -> VecMask<'m> {
    let vm = VecMask::dense(m.bits);
    if m.complement {
        vm.complement()
    } else {
        vm
    }
}

/// The shared backend's push over `k` sources: one run of the per-source
/// kernel `push` each, source `s` under `masks[s]` when masks are given.
fn per_source<X, Y>(
    xs: &[X],
    masks: Option<&[MaskSpec<'_, DenseVec<bool>>]>,
    push: impl Fn(&X, Option<&VecMask<'_>>) -> Result<Y>,
) -> Result<Vec<Y>> {
    if let Some(masks) = masks {
        check_dims("masks vs sources", xs.len(), masks.len())?;
    }
    let mask = |s: usize| masks.map(|m| vec_mask(&m[s]));
    xs.iter().enumerate().map(|(s, x)| push(x, mask(s).as_ref())).collect()
}

impl GblasBackend for SharedBackend<'_> {
    type Matrix<T: Scalar> = CsrMatrix<T>;
    type SparseVec<T: Scalar> = SparseVec<T>;
    type DenseVec<T: Scalar> = DenseVec<T>;

    fn mat_nrows<T: Scalar>(&self, a: &CsrMatrix<T>) -> usize {
        a.nrows()
    }

    fn mat_ncols<T: Scalar>(&self, a: &CsrMatrix<T>) -> usize {
        a.ncols()
    }

    fn mat_nnz<T: Scalar>(&self, a: &CsrMatrix<T>) -> usize {
        a.nnz()
    }

    fn mat_map<T: Scalar, U: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        f: &(impl Fn(usize, usize, T) -> U + Sync),
    ) -> Result<CsrMatrix<U>> {
        Ok(ops::apply::map_mat(a, f, self.ctx))
    }

    fn mat_select<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        pred: &(impl Fn(usize, usize, T) -> bool + Sync),
    ) -> Result<CsrMatrix<T>> {
        Ok(ops::select::select_mat(a, pred, self.ctx))
    }

    fn mat_transpose<T: Scalar>(&self, a: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
        ops::transpose::transpose(a, self.ctx)
    }

    fn mxm_masked<A, B, C, AddM, MulOp, M>(
        &self,
        a: &CsrMatrix<A>,
        b: &CsrMatrix<B>,
        ring: &Semiring<AddM, MulOp>,
        mask: Option<&CsrMatrix<M>>,
        rule: Option<&(impl Fn(usize, usize, C) -> Option<C> + Sync)>,
    ) -> Result<CsrMatrix<C>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        M: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>,
    {
        ops::mxm::mxm_emit(a, b, ring, mask, rule, self.ctx)
    }

    fn reduce_rows<T: Scalar, M>(&self, a: &CsrMatrix<T>, monoid: &M) -> Result<Vec<T>>
    where
        M: Monoid<T>,
    {
        Ok(ops::reduce::reduce_rows(a, monoid, self.ctx).into_vec())
    }

    fn reduce_mat<T: Scalar, M>(&self, a: &CsrMatrix<T>, monoid: &M) -> Result<T>
    where
        M: ComMonoid<T>,
    {
        Ok(ops::reduce::reduce_mat(a, monoid, self.ctx))
    }

    fn mat_row_degrees<T: Scalar>(&self, a: &CsrMatrix<T>) -> Result<Vec<usize>> {
        Ok(ops::reduce::row_degrees(a, self.ctx))
    }

    fn spmspv<T, V, W, R>(
        &self,
        a: &CsrMatrix<T>,
        xs: &[SparseVec<V>],
        rule: &R,
        masks: Option<&[MaskSpec<'_, DenseVec<bool>>]>,
        opts: SpMSpVOpts,
    ) -> Result<Vec<SparseVec<W>>>
    where
        T: Scalar,
        V: Scalar,
        W: Scalar,
        R: PushRule<T, V, W>,
    {
        per_source(xs, masks, |x, vm| rule.multiply_block(a, x, 0, vm, opts, self.ctx))
    }

    fn spmv<A, B, C, AddM, MulOp>(
        &self,
        a: &CsrMatrix<B>,
        xs: &[DenseVec<A>],
        ring: &Semiring<AddM, MulOp>,
    ) -> Result<Vec<DenseVec<C>>>
    where
        A: Scalar,
        B: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>,
    {
        xs.iter().map(|x| ops::spmv::spmv_col(a, x, ring, self.ctx)).collect()
    }

    fn pull_first_visitor<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        frontier: &SparseVec<usize>,
        visited: &DenseVec<bool>,
    ) -> Result<SparseVec<usize>> {
        let rows = a.in_neighbours(self.ctx).ok_or_else(|| {
            GblasError::InvalidArgument(format!(
                "pull over {} rows: in-neighbour ids are 32-bit",
                a.nrows()
            ))
        })?;
        let mut bits = vec![false; frontier.capacity()];
        for &i in frontier.indices() {
            bits[i] = true;
        }
        ops::selection::pull_first_visitor(rows, &DenseVec::from_vec(bits), visited, self.ctx)
    }

    fn record_decision(
        &self,
        algo: &'static str,
        iter: usize,
        dir: ops::selection::Direction,
        nnz_f: usize,
        unexplored: usize,
    ) -> Result<()> {
        let _op = self.ctx.trace_op_attrs(
            "select",
            nnz_f as u64,
            &[("iter", iter), ("unexplored", unexplored)],
            &[("algo", algo), ("dir", dir.name())],
        );
        Ok(())
    }

    fn dense_filled<T: Scalar>(&self, len: usize, fill: T) -> DenseVec<T> {
        DenseVec::filled(len, fill)
    }

    fn dense_from_vec<T: Scalar>(&self, v: Vec<T>) -> DenseVec<T> {
        DenseVec::from_vec(v)
    }

    fn dense_to_vec<T: Scalar>(&self, v: DenseVec<T>) -> Vec<T> {
        v.into_vec()
    }

    fn dense_set<T: Scalar>(&self, v: &mut DenseVec<T>, i: usize, value: T) {
        v.as_mut_slice()[i] = value;
    }

    fn sparse_from_sorted<T: Scalar>(
        &self,
        capacity: usize,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<SparseVec<T>> {
        SparseVec::from_sorted(capacity, indices, values)
    }

    fn sparse_entries<T: Scalar>(&self, x: &SparseVec<T>) -> Vec<(usize, T)> {
        x.iter().map(|(i, &v)| (i, v)).collect()
    }

    fn sparse_nnz<T: Scalar>(&self, x: &SparseVec<T>) -> usize {
        x.nnz()
    }

    fn allreduce_scalar(&self, _phase: &'static str) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{semirings, Plus};
    use crate::gen;

    #[test]
    fn shared_backend_round_trips_vectors() {
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let d = b.dense_from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(b.dense_to_vec(d), vec![1.0, 2.0, 3.0]);
        let s = b.sparse_from_sorted(5, vec![1, 4], vec![10u64, 40]).unwrap();
        assert_eq!(b.sparse_entries(&s), vec![(1, 10), (4, 40)]);
        assert_eq!(b.sparse_nnz(&s), 2);
    }

    #[test]
    fn shared_backend_pushes_every_source_as_its_solo_kernel_run() {
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let a = gen::erdos_renyi(150, 5, 13);
        let ring = semirings::min_plus();
        let opts = SpMSpVOpts::default();
        let xs: Vec<SparseVec<f64>> = [0, 42, 42]
            .iter()
            .map(|&src| SparseVec::from_sorted(150, vec![src], vec![0.0]).unwrap())
            .collect();
        let bits: Vec<DenseVec<bool>> =
            (0..3).map(|s| DenseVec::from_fn(150, |i| i % (s + 2) == 0)).collect();
        let masks =
            [MaskSpec::complement(&bits[0]), MaskSpec::new(&bits[1]), MaskSpec::new(&bits[2])];
        let ys: Vec<SparseVec<f64>> = b.spmspv(&a, &xs, &ring, Some(&masks), opts).unwrap();
        let parents = b.spmspv(&a, &[] as &[SparseVec<usize>], &FirstVisitor, None, opts).unwrap();
        assert!(parents.is_empty());
        for (s, x) in xs.iter().enumerate() {
            let vm = vec_mask(&masks[s]);
            let solo = ops::spmspv::spmspv_semiring_masked(&a, x, &ring, Some(&vm), opts, &ctx);
            assert_eq!(ys[s], solo.unwrap(), "source slot {s}");
        }
        let short: Result<Vec<SparseVec<f64>>> = b.spmspv(&a, &xs, &ring, Some(&masks[..2]), opts);
        assert!(short.is_err(), "one mask per source");
    }

    #[test]
    fn shared_backend_ops_match_direct_calls() {
        let ctx = ExecCtx::serial();
        let b = SharedBackend::new(&ctx);
        let a = gen::erdos_renyi(50, 4, 17);
        // map to ones, reduce rows = degrees
        let ones: CsrMatrix<u64> = b.mat_map(&a, &|_, _, _| 1u64).unwrap();
        let deg = b.reduce_rows(&ones, &Plus).unwrap();
        for (i, &d) in deg.iter().enumerate() {
            assert_eq!(d as usize, a.row_nnz(i));
        }
        // ... which the structure-only read gives without the ones-matrix
        let structural = b.mat_row_degrees(&a).unwrap();
        assert!(structural.iter().zip(&deg).all(|(&s, &d)| s as u64 == d));
        assert_eq!(b.reduce_mat(&ones, &Plus).unwrap() as usize, a.nnz());
        // select strictly-lower + transpose round-trip keeps nnz
        let l = b.mat_select(&a, &|i, j, _| j < i).unwrap();
        let u = b.mat_transpose(&l).unwrap();
        assert_eq!(b.mat_nnz(&l), b.mat_nnz(&u));
        // spmv against the direct kernel, column by column
        let ring = semirings::plus_times_f64();
        let xs: Vec<DenseVec<f64>> = (0..3).map(|s| b.dense_filled(50, 1.0 + s as f64)).collect();
        let ys: Vec<DenseVec<f64>> = b.spmv(&a, &xs, &ring).unwrap();
        assert_eq!(ys.len(), 3);
        for (x, y) in xs.iter().zip(&ys) {
            let want: DenseVec<f64> = ops::spmv::spmv_col(&a, x, &ring, &ctx).unwrap();
            assert_eq!(y.as_slice(), want.as_slice());
        }
        assert!(b.spmv::<f64, f64, f64, _, _>(&a, &[], &ring).unwrap().is_empty());
    }
}
