//! `Apply`: a unary operator over every stored value (§III-A).
//!
//! "Apply takes a unary operator and a matrix (or a vector) as its input.
//! It applies the unary operator to every nonzero ... The computation
//! complexity of Apply is O(nnz) and it does not require any
//! communication."
//!
//! In shared memory the paper's two versions (Listing 2's flat `forall` and
//! Listing 3's per-locale `coforall`) perform identically — "both Apply1
//! and Apply2 show near-perfect scaling on a single node" — and they only
//! diverge in distributed memory (`gblas_dist::ops::apply`). The shared
//! memory kernel below is the common body both distributed versions call.

use crate::algebra::UnaryOp;
use crate::container::{CsrMatrix, SparseVec};
use crate::par::ExecCtx;

/// Phase name used by this op.
pub const PHASE: &str = "apply";

/// Apply `op` in place to every stored value of a sparse vector.
pub fn apply_vec_inplace<T: Copy + Send + Sync>(
    x: &mut SparseVec<T>,
    op: &impl UnaryOp<T, T>,
    ctx: &ExecCtx,
) {
    let n = x.nnz();
    let _op = ctx.trace_op("apply_vec_inplace", n as u64, &[("capacity", x.capacity())]);
    let values = x.values_mut();
    // Split the value array into per-task chunks (Chapel's `forall a in
    // spArr` with one task per thread).
    let chunks = crate::par::split_ranges(n, ctx.threads());
    let mut slices: Vec<&mut [T]> = Vec::with_capacity(chunks.len());
    let mut rest: &mut [T] = values;
    for r in &chunks {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        slices.push(head);
        rest = tail;
    }
    let slices: Vec<parking_lot::Mutex<&mut [T]>> =
        slices.into_iter().map(parking_lot::Mutex::new).collect();
    ctx.for_each_task(PHASE, slices.len(), |t, c| {
        let mut guard = slices[t].lock();
        for v in guard.iter_mut() {
            *v = op.eval(*v);
        }
        c.elems += guard.len() as u64;
        c.bytes_moved += (guard.len() * std::mem::size_of::<T>() * 2) as u64;
    });
}

/// Apply `op` to a sparse vector, producing a new vector (possibly of a
/// different value type) with the same structure.
pub fn apply_vec<T: Copy + Send + Sync, C: Copy + Send + Sync>(
    x: &SparseVec<T>,
    op: &impl UnaryOp<T, C>,
    ctx: &ExecCtx,
) -> SparseVec<C> {
    let outs = ctx.parallel_for(PHASE, x.nnz(), |r, c| {
        let vals: Vec<C> = x.values()[r.clone()].iter().map(|&v| op.eval(v)).collect();
        c.elems += r.len() as u64;
        c.bytes_moved += (r.len() * (std::mem::size_of::<T>() + std::mem::size_of::<C>())) as u64;
        vals
    });
    let mut values = Vec::with_capacity(x.nnz());
    for o in outs {
        values.extend(o);
    }
    SparseVec::from_sorted(x.capacity(), x.indices().to_vec(), values).expect("structure unchanged")
}

/// Apply a coordinate-aware map to every stored entry of a CSR matrix,
/// producing a new matrix (possibly of a different value type) with the
/// same structure: `B[i,j] = f(i, j, A[i,j])`.
///
/// Tasks own contiguous row blocks, so each writes its rows' images
/// straight into its window `rowptr[start]..rowptr[end]` of the one value
/// buffer, and the result takes the operand's structure as validated.
pub fn map_mat<T: Copy + Send + Sync, C: Copy + Send + Sync>(
    a: &CsrMatrix<T>,
    f: &(impl Fn(usize, usize, T) -> C + Sync),
    ctx: &ExecCtx,
) -> CsrMatrix<C> {
    let rowptr = a.rowptr();
    let chunks = crate::par::split_ranges(a.nrows(), ctx.threads());
    // `C` has no default: the first entry's image sizes the buffer, and
    // every slot (that one included) is overwritten by its task.
    let seed = a.iter().next().map(|(i, j, &v)| f(i, j, v));
    let mut values: Vec<C> = seed.map_or_else(Vec::new, |s| vec![s; a.nnz()]);
    let mut rest = &mut values[..];
    let windows: Vec<parking_lot::Mutex<&mut [C]>> = chunks
        .iter()
        .map(|r| rest.split_off_mut(..rowptr[r.end] - rowptr[r.start]))
        .map(|w| parking_lot::Mutex::new(w.expect("row windows tile the value buffer")))
        .collect();
    ctx.for_each_task(PHASE, chunks.len(), |t, c| {
        let mut window = windows[t].lock();
        let mut slots = window.iter_mut();
        for i in chunks[t].clone() {
            let (cols, vals) = a.row(i);
            for ((&j, &v), slot) in cols.iter().zip(vals).zip(&mut slots) {
                *slot = f(i, j, v);
            }
            c.elems += cols.len() as u64;
            c.bytes_moved +=
                (cols.len() * (std::mem::size_of::<T>() + std::mem::size_of::<C>())) as u64;
        }
    });
    drop(windows);
    a.with_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::SparseVec;

    #[test]
    fn inplace_applies_to_all_values() {
        for threads in [1, 2, 8] {
            let mut x = SparseVec::from_sorted(10, vec![1, 3, 5], vec![1.0, 2.0, 3.0]).unwrap();
            let ctx = ExecCtx::new(threads, 2);
            apply_vec_inplace(&mut x, &|v: f64| v * 10.0, &ctx);
            assert_eq!(x.values(), &[10.0, 20.0, 30.0]);
            assert_eq!(x.indices(), &[1, 3, 5]); // structure untouched
            let prof = ctx.take_profile();
            assert_eq!(prof.phase(PHASE).elems, 3);
        }
    }

    #[test]
    fn apply_with_type_change() {
        let x = SparseVec::from_sorted(4, vec![0, 2], vec![1.5f64, 2.5]).unwrap();
        let ctx = ExecCtx::serial();
        let y = apply_vec(&x, &|v: f64| v > 2.0, &ctx);
        assert_eq!(y.values(), &[false, true]);
        assert_eq!(y.capacity(), 4);
    }

    #[test]
    fn apply_empty_vector_is_noop() {
        let mut x = SparseVec::<i32>::new(5);
        let ctx = ExecCtx::with_threads(4);
        apply_vec_inplace(&mut x, &|v: i32| v + 1, &ctx);
        assert_eq!(x.nnz(), 0);
    }

    #[test]
    fn map_mat_writes_every_window_at_any_task_count() {
        // rows 0, 2 and 5 are empty: windows of width zero at the edges
        let trips = [(1, 0, 1.5), (1, 3, 2.5), (3, 2, 3.5), (4, 0, 4.5), (4, 1, 5.5), (4, 3, 6.5)];
        let a = CsrMatrix::from_triplets(6, 4, &trips).unwrap();
        for threads in [1, 2, 4, 6, 50] {
            let ctx = ExecCtx::new(threads, 2);
            let b = map_mat(&a, &|i, j, v: f64| (i * 10 + j) as u64 + v as u64, &ctx);
            assert_eq!((b.rowptr(), b.colidx()), (a.rowptr(), a.colidx()));
            let want: Vec<u64> =
                trips.iter().map(|&(i, j, v)| (i * 10 + j) as u64 + v as u64).collect();
            assert_eq!(b.values(), want, "{threads} threads");
            let c = ctx.take_profile().phase(PHASE);
            assert_eq!((c.elems, c.bytes_moved), (6, 6 * 16));
            assert_eq!((c.regions, c.tasks), (1, threads.min(6) as u64));
        }
    }

    #[test]
    fn map_mat_of_an_empty_matrix_still_runs_its_region() {
        for (nrows, tasks) in [(0, 1), (5, 4)] {
            let a = CsrMatrix::<f64>::empty(nrows, 3);
            let ctx = ExecCtx::simulated(4);
            let b = map_mat(&a, &|_, _, v| v > 0.0, &ctx);
            assert_eq!((b.nrows(), b.ncols(), b.nnz()), (nrows, 3, 0));
            let c = ctx.take_profile().phase(PHASE);
            assert_eq!((c.elems, c.regions, c.tasks), (0, 1, tasks));
        }
    }

    #[test]
    fn counters_scale_with_nnz() {
        let n = 10_000;
        let x = SparseVec::from_sorted(n, (0..n).collect(), vec![1u8; n]).unwrap();
        let ctx = ExecCtx::simulated(24);
        let _ = apply_vec(&x, &|v: u8| v, &ctx);
        let c = ctx.take_profile().phase(PHASE);
        assert_eq!(c.elems, n as u64);
        assert_eq!(c.tasks, 24);
    }
}
