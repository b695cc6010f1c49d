//! Compressed Sparse Rows matrices.

use crate::error::{GblasError, Result};
use crate::par::{split_by_work, ExecCtx};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// A CSR matrix, the one sparse-matrix format the paper uses: "we only
/// considered the Compressed Sparse Rows (CSR) format ... because this is
/// supported in Chapel" (§II-A). Exactly the paper's three arrays:
///
/// * `rowptr` — length `nrows + 1`, monotone; `rowptr[i]..rowptr[i+1]`
///   delimits row `i`'s nonzeros (the paper's `rowptrs`);
/// * `colidx` — column ids, **sorted within each row** ("Chapel keeps the
///   column ids of nonzeros within each row sorted");
/// * `values` — numerical values, parallel to `colidx`.
///
/// Beside them the matrix keeps, once a pull has asked for them, its
/// [`InNeighbours`] — the pattern of `Aᵀ` — so a direction-optimizing
/// traversal never transposes per solve. They are derived state: clones
/// share them, and equality and `Debug` look only at the three arrays.
#[derive(Clone)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
    values: Vec<T>,
    in_neighbours: OnceLock<Arc<InNeighbours>>,
}

impl<T: PartialEq> PartialEq for CsrMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
            && self.values == other.values
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CsrMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("rowptr", &self.rowptr)
            .field("colidx", &self.colidx)
            .field("values", &self.values)
            .finish()
    }
}

impl<T> CsrMatrix<T> {
    /// An empty (all-zero) matrix.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colidx: Vec::new(),
            values: Vec::new(),
            in_neighbours: OnceLock::new(),
        }
    }

    /// Build from raw CSR arrays, validating every invariant.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self> {
        if rowptr.len() != nrows + 1 {
            return Err(GblasError::InvalidContainer(format!(
                "rowptr length {} != nrows + 1 = {}",
                rowptr.len(),
                nrows + 1
            )));
        }
        if rowptr[0] != 0 {
            return Err(GblasError::InvalidContainer("rowptr[0] != 0".into()));
        }
        if *rowptr.last().unwrap() != colidx.len() {
            return Err(GblasError::InvalidContainer(format!(
                "rowptr[last] = {} != nnz = {}",
                rowptr.last().unwrap(),
                colidx.len()
            )));
        }
        if colidx.len() != values.len() {
            return Err(GblasError::InvalidContainer(format!(
                "colidx/values length mismatch: {} vs {}",
                colidx.len(),
                values.len()
            )));
        }
        for w in rowptr.windows(2) {
            if w[0] > w[1] {
                return Err(GblasError::InvalidContainer("rowptr not monotone".into()));
            }
        }
        for r in 0..nrows {
            let row = &colidx[rowptr[r]..rowptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(GblasError::InvalidContainer(format!(
                        "row {r}: column ids not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(GblasError::IndexOutOfBounds { index: last, capacity: ncols });
                }
            }
        }
        Ok(CsrMatrix { nrows, ncols, rowptr, colidx, values, in_neighbours: OnceLock::new() })
    }

    /// Build from `(row, col, value)` triplets; duplicates are an error.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, T)]) -> Result<Self>
    where
        T: Copy,
    {
        let mut coo = super::CooMatrix::new(nrows, ncols);
        for &(r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        coo.to_csr(super::DupPolicy::Error)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The row-pointer array (`rowptrs` in the paper).
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// The column-id array (`colids`).
    pub fn colidx(&self) -> &[usize] {
        &self.colidx
    }

    /// The value array.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Row `i` as `(column ids, values)` slices — the constant-time
    /// row-start access CSR exists to provide.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let r = self.rowptr[i]..self.rowptr[i + 1];
        (&self.colidx[r.clone()], &self.values[r])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Random access to `A[i, j]` via binary search within row `i`.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|p| &vals[p])
    }

    /// Iterate `(row, col, &value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, v)| (r, c, v))
        })
    }

    /// A matrix with this one's structure and `values` in its place (one
    /// per stored entry, in storage order). The structure was validated
    /// when `self` was built, so only the value count is checked; the
    /// in-neighbour lists, if built, are shared.
    pub fn with_values<U>(&self, values: Vec<U>) -> CsrMatrix<U> {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            values,
            in_neighbours: self.in_neighbours.clone(),
        }
    }

    /// The kept in-neighbour lists, built under `ctx` by the first caller
    /// (concurrent first callers wait for that one build) and charged to
    /// its profile alone. `None` for a matrix of more than
    /// `InNeighbours::MAX_ROWS` rows (2³² or more), whose ids do not fit
    /// the lists' 32 bits.
    pub fn in_neighbours(&self, ctx: &ExecCtx) -> Option<&InNeighbours> {
        if self.nrows > InNeighbours::MAX_ROWS {
            return None;
        }
        Some(self.in_neighbours.get_or_init(|| Arc::new(InNeighbours::build(self, ctx))))
    }
}

/// A matrix's in-neighbour lists: list `j` holds, ascending, every row `i`
/// with a stored `A[i, j]` — the pattern of `Aᵀ`, without values, in
/// 32-bit ids (half the bytes of `usize` ids on the lists' `nnz` entries).
/// Built by [`CsrMatrix::in_neighbours`]; the pull kernel reads them.
#[derive(Debug)]
pub struct InNeighbours {
    /// Rows of `A`: the id space of the lists' entries.
    sources: usize,
    /// `ptr[j]..ptr[j + 1]` delimits list `j`; `ncols(A) + 1` entries.
    ptr: Vec<usize>,
    ids: Vec<u32>,
}

impl InNeighbours {
    /// The most rows a matrix may have for its lists to be kept: every
    /// row id is then below it, so each fits a `u32`.
    pub const MAX_ROWS: usize = u32::MAX as usize;

    /// Parallel counting sort of `a`'s entries by column. Each task owns a
    /// row range of about equal `nnz`: it counts its columns, the counts
    /// become per-task write cursors (tasks in row order, so every list
    /// stays ascending), and each task scatters its own rows. Charged to
    /// the transpose phase, like the transpose it replaces.
    fn build<T>(a: &CsrMatrix<T>, ctx: &ExecCtx) -> Self {
        // Every row id below `MAX_ROWS` fits the `u32` the scatter stores.
        assert!(a.nrows <= Self::MAX_ROWS, "in-neighbour ids are 32-bit");
        let (nrows, ncols, rowptr, colidx) = (a.nrows, a.ncols, &a.rowptr[..], &a.colidx[..]);
        let chunks = split_by_work(nrows, ctx.threads(), |i| rowptr[i + 1] - rowptr[i]);
        let phase = crate::ops::transpose::PHASE;
        let mut cursors = ctx.for_each_task(phase, chunks.len(), |t, c| {
            let entries = &colidx[rowptr[chunks[t].start]..rowptr[chunks[t].end]];
            let mut count = vec![0usize; ncols];
            for &j in entries {
                count[j] += 1;
            }
            c.elems += entries.len() as u64;
            c.rand_access += entries.len() as u64;
            count
        });
        let mut ptr = vec![0usize; ncols + 1];
        for j in 0..ncols {
            let mut next = ptr[j];
            for cursor in &mut cursors {
                let here = cursor[j];
                cursor[j] = next;
                next += here;
            }
            ptr[j + 1] = next;
        }
        let ids: Vec<AtomicU32> = (0..colidx.len()).map(|_| AtomicU32::new(0)).collect();
        // Task `t` alone locks cursor `t`: the lock only lends it mutably.
        let cursors: Vec<Mutex<Vec<usize>>> = cursors.into_iter().map(Mutex::new).collect();
        ctx.for_each_task(phase, chunks.len(), |t, c| {
            let mut cursor = cursors[t].lock();
            for i in chunks[t].clone() {
                let row = &colidx[rowptr[i]..rowptr[i + 1]];
                for &j in row {
                    // The cursors of distinct tasks never meet, so every
                    // slot is stored exactly once; the region's join
                    // orders the stores before `into_inner` reads them.
                    ids[cursor[j]].store(i as u32, Ordering::Relaxed);
                    cursor[j] += 1;
                }
                c.elems += row.len() as u64;
                c.rand_access += row.len() as u64;
            }
        });
        let ids = ids.into_iter().map(AtomicU32::into_inner).collect();
        InNeighbours { sources: nrows, ptr, ids }
    }

    /// Number of lists (columns of `A`).
    pub(crate) fn lists(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Rows of `A`: every entry of a list is below this.
    pub(crate) fn sources(&self) -> usize {
        self.sources
    }

    /// List `j`: the in-neighbours of vertex `j`, ascending.
    pub(crate) fn list(&self, j: usize) -> &[u32] {
        &self.ids[self.ptr[j]..self.ptr[j + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [ .  1  .  2 ]
        // [ .  .  .  . ]
        // [ 3  .  4  . ]
        CsrMatrix::from_triplets(3, 4, &[(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0), (2, 2, 4.0)])
            .unwrap()
    }

    #[test]
    fn triplets_build_sorted_csr() {
        let a = sample();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 4);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.rowptr(), &[0, 2, 2, 4]);
        assert_eq!(a.row(0), (&[1usize, 3][..], &[1.0, 2.0][..]));
        assert_eq!(a.row(1), (&[][..], &[][..]));
        assert_eq!(a.row_nnz(2), 2);
    }

    #[test]
    fn get_random_access() {
        let a = sample();
        assert_eq!(a.get(0, 3), Some(&2.0));
        assert_eq!(a.get(1, 0), None);
        assert_eq!(a.get(2, 2), Some(&4.0));
    }

    #[test]
    fn iter_visits_in_row_major_order() {
        let a = sample();
        let trips: Vec<(usize, usize, f64)> = a.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(trips, vec![(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0), (2, 2, 4.0)]);
    }

    #[test]
    fn from_raw_parts_validates() {
        // wrong rowptr length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // rowptr not starting at 0
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![1, 1], vec![], Vec::<f64>::new()).is_err());
        // non-monotone rowptr
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
        // unsorted columns in a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // valid
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn with_values_keeps_structure_and_changes_type() {
        let a = sample();
        let b = a.with_values(vec![true, false, true, true]);
        assert_eq!((b.nrows(), b.ncols()), (3, 4));
        assert_eq!(b.rowptr(), a.rowptr());
        assert_eq!(b.colidx(), a.colidx());
        assert_eq!(b.row(2), (&[0usize, 2][..], &[true, true][..]));
    }

    #[test]
    #[should_panic(expected = "one value per stored entry")]
    fn with_values_rejects_a_wrong_count() {
        let _ = sample().with_values(vec![1u8; 3]);
    }

    #[test]
    fn duplicate_triplets_rejected() {
        let r = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::<i32>::empty(3, 5);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.row(2), (&[][..], &[][..]));
    }
}
