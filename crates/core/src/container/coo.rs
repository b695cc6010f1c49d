//! COO (triplet) builder for assembling matrices.

use crate::error::{GblasError, Result};

/// What to do with duplicate `(row, col)` entries when converting to CSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupPolicy {
    /// Duplicates are an error (GraphBLAS `GrB_Matrix_build` without dup op).
    Error,
    /// Keep the last-pushed value.
    KeepLast,
    /// Sum duplicate values (the usual graph multi-edge collapse).
    Sum,
}

/// A mutable triplet store: push `(row, col, value)` in any order, then
/// convert to [`super::CsrMatrix`]. This is the `GrB_Matrix_build` path of
/// the GraphBLAS C API.
#[derive(Debug, Clone)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T> CooMatrix<T> {
    /// An empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, entries: Vec::new() }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of pushed triplets (duplicates included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one entry, bounds-checked.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<()> {
        if row >= self.nrows {
            return Err(GblasError::IndexOutOfBounds { index: row, capacity: self.nrows });
        }
        if col >= self.ncols {
            return Err(GblasError::IndexOutOfBounds { index: col, capacity: self.ncols });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Reserve space for `additional` more triplets.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Reserve space for `additional` more triplets, failing with an error
    /// instead of aborting when the allocation cannot be made — for sizes
    /// read from outside input.
    pub(crate) fn try_reserve(&mut self, additional: usize) -> Result<()> {
        self.entries.try_reserve(additional).map_err(|_| {
            GblasError::InvalidArgument(format!("cannot reserve {additional} entries"))
        })
    }

    /// Convert to CSR, resolving duplicates per `policy`.
    ///
    /// [`DupPolicy::Sum`] needs a combiner and must go through
    /// [`CooMatrix::to_csr_with`]; passing it here is an
    /// [`GblasError::InvalidArgument`].
    pub fn to_csr(self, policy: DupPolicy) -> Result<super::CsrMatrix<T>>
    where
        T: Copy,
    {
        if policy == DupPolicy::Sum {
            return Err(GblasError::InvalidArgument(
                "DupPolicy::Sum requires to_csr_with and a combiner".into(),
            ));
        }
        self.to_csr_with(policy, |a, _| a)
    }

    /// Convert to CSR with an explicit combiner used when `policy` is
    /// [`DupPolicy::Sum`] (the combiner defines what "sum" means — any
    /// binary op works, matching GraphBLAS `build`'s `dup` operator).
    ///
    /// A stable counting sort, O(nnz + nrows): the rows are histogrammed
    /// into `rowptr`, every `(col, value)` is scattered in push order with
    /// `rowptr[r]` as row `r`'s cursor, and each row is then sorted by
    /// column and deduplicated in place. Duplicates meet in push order, so
    /// `KeepLast` and `Sum` see them as a stable sort of the triplets
    /// would, and `Error` names the first duplicate in `(row, col)` order.
    /// Nothing `nrows`-sized is allocated besides `rowptr`.
    pub fn to_csr_with(
        self,
        policy: DupPolicy,
        combine: impl Fn(T, T) -> T,
    ) -> Result<super::CsrMatrix<T>>
    where
        T: Copy,
    {
        let CooMatrix { nrows, ncols, entries } = self;
        let too_many_rows = || {
            GblasError::InvalidArgument(format!("cannot allocate a row pointer for {nrows} rows"))
        };
        let mut rowptr: Vec<usize> = Vec::new();
        rowptr
            .try_reserve_exact(nrows.checked_add(1).ok_or_else(too_many_rows)?)
            .map_err(|_| too_many_rows())?;
        rowptr.resize(nrows + 1, 0);
        let Some(&(_, _, fill)) = entries.first() else {
            return super::CsrMatrix::from_raw_parts(nrows, ncols, rowptr, Vec::new(), Vec::new());
        };
        for &(r, _, _) in &entries {
            rowptr[r + 1] += 1;
        }
        for i in 0..nrows {
            rowptr[i + 1] += rowptr[i];
        }
        // Scatter: afterwards rowptr[r] is the end of row r.
        let mut colidx = vec![0usize; entries.len()];
        let mut values = vec![fill; entries.len()];
        for (r, c, v) in entries {
            let k = rowptr[r];
            colidx[k] = c;
            values[k] = v;
            rowptr[r] = k + 1;
        }
        // Sort and deduplicate each row, compacting to the front: row r is
        // read from start..rowptr[r] and written from w, and w never passes
        // start. `(col, position)` keys are distinct, so the unstable sort
        // keeps push order among equal columns.
        let mut scratch: Vec<(usize, usize, T)> = Vec::new();
        let (mut start, mut w) = (0, 0);
        for (r, ptr) in rowptr[..nrows].iter_mut().enumerate() {
            let (end, row_start) = (*ptr, w);
            *ptr = w;
            if !colidx[start..end].is_sorted() {
                scratch.clear();
                scratch.extend((start..end).map(|k| (colidx[k], k, values[k])));
                scratch.sort_unstable_by_key(|&(c, k, _)| (c, k));
                for (k, &(c, _, v)) in (start..end).zip(&scratch) {
                    colidx[k] = c;
                    values[k] = v;
                }
            }
            for k in start..end {
                let (c, v) = (colidx[k], values[k]);
                if w > row_start && colidx[w - 1] == c {
                    match policy {
                        DupPolicy::Error => {
                            return Err(GblasError::InvalidContainer(format!(
                                "duplicate entry at ({r}, {c})"
                            )));
                        }
                        DupPolicy::KeepLast => values[w - 1] = v,
                        DupPolicy::Sum => values[w - 1] = combine(values[w - 1], v),
                    }
                } else {
                    colidx[w] = c;
                    values[w] = v;
                    w += 1;
                }
            }
            start = end;
        }
        rowptr[nrows] = w;
        colidx.truncate(w);
        colidx.shrink_to_fit();
        values.truncate(w);
        values.shrink_to_fit();
        super::CsrMatrix::from_raw_parts(nrows, ncols, rowptr, colidx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_basic() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 9.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 5.0).unwrap();
        let a = coo.to_csr(DupPolicy::Error).unwrap();
        assert_eq!(a.rowptr(), &[0, 1, 3]);
        assert_eq!(a.colidx(), &[0, 0, 2]);
        assert_eq!(a.values(), &[1.0, 5.0, 9.0]);
    }

    #[test]
    fn bounds_checked_push() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1).is_err());
        assert!(coo.push(0, 2, 1).is_err());
        assert!(coo.push(1, 1, 1).is_ok());
    }

    #[test]
    fn duplicate_policies() {
        let build = |policy| {
            let mut coo = CooMatrix::new(1, 2);
            coo.push(0, 1, 10).unwrap();
            coo.push(0, 1, 3).unwrap();
            coo.to_csr_with(policy, |a, b| a + b)
        };
        assert!(build(DupPolicy::Error).is_err());
        assert_eq!(build(DupPolicy::KeepLast).unwrap().values(), &[3]);
        assert_eq!(build(DupPolicy::Sum).unwrap().values(), &[13]);
    }

    #[test]
    fn empty_builder_gives_empty_matrix() {
        let coo = CooMatrix::<f32>::new(4, 4);
        let a = coo.to_csr(DupPolicy::Error).unwrap();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.rowptr(), &[0, 0, 0, 0, 0]);
    }
}
