//! A GraphBLAS-C-flavoured front-end: masks, accumulators, descriptors.
//!
//! The paper targets "the upcoming GraphBLAS specification and the C
//! language API \[which\] contains approximately ten distinct functions"
//! (§III). The modules under [`crate::ops`] implement the kernels; this
//! module composes them into the C API's calling convention:
//!
//! ```text
//! w⟨mask⟩ = w accum op(args...)        // GrB_*(w, mask, accum, op, args, desc)
//! ```
//!
//! with the standard write semantics: the operation result `t` is merged
//! into `w` under the (possibly complemented) mask, optionally combined
//! with the old value by the `accum` binary operator, and with
//! `GrB_REPLACE` deleting `w`'s entries outside the mask.

use crate::algebra::{BinaryOp, Monoid, Semiring, UnaryOp};
use crate::container::{CsrMatrix, SparseVec};
use crate::error::Result;
use crate::mask::VecMask;
use crate::ops::spmspv::{spmspv_semiring_masked, SpMSpVOpts};
use crate::par::{Counters, ExecCtx};

/// Execution descriptor (the subset of `GrB_Descriptor` the library
/// honours).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Descriptor {
    /// Complement the mask (`GrB_COMP`).
    pub mask_complement: bool,
    /// Clear entries of the output that fall outside the mask
    /// (`GrB_REPLACE`).
    pub replace: bool,
}

impl Descriptor {
    /// The all-defaults descriptor.
    pub fn none() -> Self {
        Self::default()
    }

    /// With the mask complemented.
    pub fn comp() -> Self {
        Descriptor { mask_complement: true, ..Self::default() }
    }

    /// With replace semantics.
    pub fn replace() -> Self {
        Descriptor { replace: true, ..Self::default() }
    }
}

/// Apply `desc.mask_complement` to an optional mask.
fn effective_mask<'a>(mask: Option<&VecMask<'a>>, desc: Descriptor) -> Option<VecMask<'a>> {
    mask.map(|m| if desc.mask_complement { m.complement() } else { *m })
}

/// The standard GraphBLAS write-back: merge result `t` into `w` under
/// `mask`/`accum`/`replace`.
fn write_back<T: Copy>(
    w: &mut SparseVec<T>,
    t: SparseVec<T>,
    mask: Option<&VecMask<'_>>,
    accum: Option<&impl BinaryOp<T, T, T>>,
    replace: bool,
    counters: &mut Counters,
) -> Result<()> {
    let allowed = |i: usize, c: &mut Counters| mask.map(|m| m.allows(i, c)).unwrap_or(true);
    let (wi, wv) = (w.indices(), w.values());
    let (ti, tv) = (t.indices(), t.values());
    let mut out_i = Vec::with_capacity(wi.len() + ti.len());
    let mut out_v = Vec::with_capacity(wi.len() + ti.len());
    let (mut p, mut q) = (0usize, 0usize);
    while p < wi.len() || q < ti.len() {
        counters.elems += 1;
        if q >= ti.len() || (p < wi.len() && wi[p] < ti[q]) {
            // only the old value exists here
            let i = wi[p];
            let keep = if replace { allowed(i, counters) } else { true };
            if keep {
                out_i.push(i);
                out_v.push(wv[p]);
            }
            p += 1;
        } else if p >= wi.len() || ti[q] < wi[p] {
            // only the new value exists here
            let i = ti[q];
            if allowed(i, counters) {
                out_i.push(i);
                out_v.push(tv[q]);
            }
            q += 1;
        } else {
            // both exist
            let i = wi[p];
            if allowed(i, counters) {
                let v = match accum {
                    Some(op) => {
                        counters.flops += 1;
                        op.eval(wv[p], tv[q])
                    }
                    None => tv[q],
                };
                out_i.push(i);
                out_v.push(v);
            } else if !replace {
                out_i.push(i);
                out_v.push(wv[p]);
            }
            p += 1;
            q += 1;
        }
    }
    *w = SparseVec::from_sorted(w.capacity(), out_i, out_v)?;
    Ok(())
}

/// `w⟨mask⟩ = w accum (x ⊗ A)` — GraphBLAS `GrB_vxm` (the paper's SpMSpV
/// orientation).
#[allow(clippy::too_many_arguments)]
pub fn vxm<T, AddM, MulOp, Acc>(
    w: &mut SparseVec<T>,
    mask: Option<&VecMask<'_>>,
    accum: Option<&Acc>,
    ring: &Semiring<AddM, MulOp>,
    x: &SparseVec<T>,
    a: &CsrMatrix<T>,
    desc: Descriptor,
    ctx: &ExecCtx,
) -> Result<()>
where
    T: Copy + Send + Sync + 'static,
    AddM: Monoid<T>,
    MulOp: BinaryOp<T, T, T>,
    Acc: BinaryOp<T, T, T>,
{
    let em = effective_mask(mask, desc);
    let t = spmspv_semiring_masked(a, x, ring, em.as_ref(), SpMSpVOpts::default(), ctx)?;
    let mut c = Counters::default();
    write_back(w, t, em.as_ref(), accum, desc.replace, &mut c)?;
    ctx.record("write-back", |pc| pc.merge(&c));
    Ok(())
}

/// `w⟨mask⟩ = w accum (A ⊗ x)` — GraphBLAS `GrB_mxv`.
#[allow(clippy::too_many_arguments)]
pub fn mxv<T, AddM, MulOp, Acc>(
    w: &mut SparseVec<T>,
    mask: Option<&VecMask<'_>>,
    accum: Option<&Acc>,
    ring: &Semiring<AddM, MulOp>,
    a: &CsrMatrix<T>,
    x: &SparseVec<T>,
    desc: Descriptor,
    ctx: &ExecCtx,
) -> Result<()>
where
    T: Copy + Send + Sync + PartialEq + 'static,
    AddM: Monoid<T>,
    MulOp: BinaryOp<T, T, T>,
    Acc: BinaryOp<T, T, T>,
{
    let em = effective_mask(mask, desc);
    let raw = crate::ops::mxv::mxv_sparse(a, x, ring, ctx)?;
    let t = match em.as_ref() {
        Some(m) => {
            let mut c = Counters::default();
            let filtered = m.filter(&raw, &mut c);
            ctx.record("mask", |pc| pc.merge(&c));
            filtered
        }
        None => raw,
    };
    let mut c = Counters::default();
    write_back(w, t, em.as_ref(), accum, desc.replace, &mut c)?;
    ctx.record("write-back", |pc| pc.merge(&c));
    Ok(())
}

/// `w⟨mask⟩ = w accum op(u)` — GraphBLAS `GrB_apply` on vectors.
#[allow(clippy::too_many_arguments)]
pub fn apply<T, Op, Acc>(
    w: &mut SparseVec<T>,
    mask: Option<&VecMask<'_>>,
    accum: Option<&Acc>,
    op: &Op,
    u: &SparseVec<T>,
    desc: Descriptor,
    ctx: &ExecCtx,
) -> Result<()>
where
    T: Copy + Send + Sync,
    Op: UnaryOp<T, T>,
    Acc: BinaryOp<T, T, T>,
{
    let em = effective_mask(mask, desc);
    let t = crate::ops::apply::apply_vec(u, op, ctx);
    let mut c = Counters::default();
    write_back(w, t, em.as_ref(), accum, desc.replace, &mut c)?;
    ctx.record("write-back", |pc| pc.merge(&c));
    Ok(())
}

/// `w⟨mask⟩ = w accum (u .* v)` — GraphBLAS `GrB_eWiseMult` on vectors.
#[allow(clippy::too_many_arguments)]
pub fn ewise_mult<T, Op, Acc>(
    w: &mut SparseVec<T>,
    mask: Option<&VecMask<'_>>,
    accum: Option<&Acc>,
    op: &Op,
    u: &SparseVec<T>,
    v: &SparseVec<T>,
    desc: Descriptor,
    ctx: &ExecCtx,
) -> Result<()>
where
    T: Copy + Send + Sync,
    Op: BinaryOp<T, T, T>,
    Acc: BinaryOp<T, T, T>,
{
    let em = effective_mask(mask, desc);
    let t: SparseVec<T> = crate::ops::ewise::ewise_mult(u, v, op, ctx)?;
    let mut c = Counters::default();
    write_back(w, t, em.as_ref(), accum, desc.replace, &mut c)?;
    ctx.record("write-back", |pc| pc.merge(&c));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{semirings, Plus, Times};
    use crate::container::DenseVec;

    fn v(cap: usize, entries: &[(usize, f64)]) -> SparseVec<f64> {
        SparseVec::from_pairs(cap, entries.to_vec()).unwrap()
    }

    #[test]
    fn vxm_plain_replaces_w() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let x = v(4, &[(0, 1.0), (1, 1.0)]);
        let mut w = v(4, &[(3, 9.0)]);
        let ctx = ExecCtx::serial();
        vxm(
            &mut w,
            None,
            None::<&Plus>,
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::none(),
            &ctx,
        )
        .unwrap();
        // no mask, no accum: t merged over w; w[3] untouched (t has no entry there)
        assert_eq!(w.indices(), &[1, 2, 3]);
        assert_eq!(w.values(), &[2.0, 3.0, 9.0]);
    }

    #[test]
    fn vxm_with_accum_combines_old_and_new() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 5.0)]).unwrap();
        let x = v(3, &[(0, 1.0)]);
        let mut w = v(3, &[(1, 10.0)]);
        let ctx = ExecCtx::serial();
        vxm(
            &mut w,
            None,
            Some(&Plus),
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::none(),
            &ctx,
        )
        .unwrap();
        assert_eq!(w.values(), &[15.0]);
    }

    #[test]
    fn replace_clears_outside_mask() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0)]).unwrap();
        let x = v(4, &[(0, 1.0)]);
        let mut w = v(4, &[(2, 7.0), (3, 8.0)]);
        let bits = DenseVec::from_vec(vec![false, true, true, false]);
        let mask = VecMask::dense(&bits);
        let ctx = ExecCtx::serial();
        vxm(
            &mut w,
            Some(&mask),
            None::<&Plus>,
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::replace(),
            &ctx,
        )
        .unwrap();
        // mask allows {1, 2}: new value at 1 written, old value at 2 kept,
        // old value at 3 (outside mask) deleted by replace.
        assert_eq!(w.indices(), &[1, 2]);
        assert_eq!(w.values(), &[1.0, 7.0]);
    }

    #[test]
    fn complement_descriptor_flips_mask() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 4.0), (0, 2, 5.0)]).unwrap();
        let x = v(3, &[(0, 1.0)]);
        let bits = DenseVec::from_vec(vec![false, true, false]);
        let mask = VecMask::dense(&bits);
        let ctx = ExecCtx::serial();
        let mut w1 = SparseVec::new(3);
        vxm(
            &mut w1,
            Some(&mask),
            None::<&Plus>,
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::none(),
            &ctx,
        )
        .unwrap();
        assert_eq!(w1.indices(), &[1]);
        let mut w2 = SparseVec::new(3);
        vxm(
            &mut w2,
            Some(&mask),
            None::<&Plus>,
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::comp(),
            &ctx,
        )
        .unwrap();
        assert_eq!(w2.indices(), &[2]);
    }

    #[test]
    fn mxv_and_vxm_are_transpose_duals() {
        let a = crate::gen::erdos_renyi(60, 4, 501);
        let at = crate::ops::transpose::transpose(&a, &ExecCtx::serial()).unwrap();
        let x = crate::gen::random_sparse_vec(60, 10, 502);
        let ctx = ExecCtx::serial();
        let mut w1 = SparseVec::new(60);
        vxm(
            &mut w1,
            None,
            None::<&Plus>,
            &semirings::plus_times_f64(),
            &x,
            &a,
            Descriptor::none(),
            &ctx,
        )
        .unwrap();
        let mut w2 = SparseVec::new(60);
        mxv(
            &mut w2,
            None,
            None::<&Plus>,
            &semirings::plus_times_f64(),
            &at,
            &x,
            Descriptor::none(),
            &ctx,
        )
        .unwrap();
        assert_eq!(w1.indices(), w2.indices());
        for (p, q) in w1.values().iter().zip(w2.values()) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_with_mask_and_accum() {
        let u = v(4, &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let mut w = v(4, &[(1, 100.0)]);
        let bits = DenseVec::from_vec(vec![true, true, false, false]);
        let mask = VecMask::dense(&bits);
        let ctx = ExecCtx::serial();
        apply(&mut w, Some(&mask), Some(&Plus), &|x: f64| x * 10.0, &u, Descriptor::none(), &ctx)
            .unwrap();
        // allowed {0,1}: w[0] = 10, w[1] = 100 + 20; index 2 masked out.
        assert_eq!(w.indices(), &[0, 1]);
        assert_eq!(w.values(), &[10.0, 120.0]);
    }

    #[test]
    fn ewise_mult_api() {
        let u = v(4, &[(0, 2.0), (2, 3.0)]);
        let vv = v(4, &[(0, 5.0), (3, 7.0)]);
        let mut w = SparseVec::new(4);
        let ctx = ExecCtx::serial();
        ewise_mult(&mut w, None, None::<&Plus>, &Times, &u, &vv, Descriptor::none(), &ctx).unwrap();
        assert_eq!(w.indices(), &[0]);
        assert_eq!(w.values(), &[10.0]);
    }

    #[test]
    fn bfs_written_against_the_c_style_api() {
        // The "hello world" again, this time through vxm with mask +
        // replace, as the GraphBLAS C examples write it.
        let a =
            CsrMatrix::from_triplets(5, 5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 1.0)])
                .unwrap();
        let ctx = ExecCtx::serial();
        let mut visited = DenseVec::filled(5, false);
        visited[0] = true;
        let mut frontier = v(5, &[(0, 1.0)]);
        let mut levels = vec![-1i32; 5];
        levels[0] = 0;
        let mut level = 0;
        while frontier.nnz() > 0 {
            level += 1;
            let mask = VecMask::dense(&visited);
            let mut next = SparseVec::new(5);
            vxm(
                &mut next,
                Some(&mask),
                None::<&Plus>,
                &semirings::plus_times_f64(),
                &frontier,
                &a,
                Descriptor::comp(), // not-yet-visited
                &ctx,
            )
            .unwrap();
            let reached: Vec<usize> = next.indices().to_vec();
            for &i in &reached {
                visited[i] = true;
                levels[i] = level;
            }
            frontier = next;
        }
        assert_eq!(levels, vec![0, 1, 2, 3, 1]);
    }
}
