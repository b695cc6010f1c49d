//! Compressed Sparse Rows matrices.

use crate::error::{GblasError, Result};

/// A CSR matrix, the one sparse-matrix format the paper uses: "we only
/// considered the Compressed Sparse Rows (CSR) format ... because this is
/// supported in Chapel" (§II-A). Exactly the paper's three arrays:
///
/// * `rowptr` — length `nrows + 1`, monotone; `rowptr[i]..rowptr[i+1]`
///   delimits row `i`'s nonzeros (the paper's `rowptrs`);
/// * `colidx` — column ids, **sorted within each row** ("Chapel keeps the
///   column ids of nonzeros within each row sorted");
/// * `values` — numerical values, parallel to `colidx`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
    values: Vec<T>,
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
        Ok(CsrMatrix { nrows, ncols, rowptr, colidx, values })
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
    /// when `self` was built, so only the value count is checked.
    pub fn with_values<U>(&self, values: Vec<U>) -> CsrMatrix<U> {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            values,
        }
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
