//! Multi-column sparse frontier: `k` sparse vectors over one index space.
//!
//! The CombBLAS 2.0 batched-traversal representation: the frontiers of
//! `k` concurrent sources packed side by side as a sparse `n×k` matrix.
//! We store it row-major-by-source — one [`SparseVec`] per source — so
//! each column of the conceptual matrix keeps the exact layout the
//! single-source kernels consume, and a batched expansion degenerates to
//! the single-source kernel at `k = 1` bit for bit.

use crate::container::SparseVec;
use crate::error::{check_dims, Result};

/// A batch of `k` sparse frontiers sharing one capacity (vertex space).
///
/// Column `s` of the conceptual `n×k` frontier matrix is `rows[s]`:
/// source `s`'s current frontier as an index-sorted sparse vector.
#[derive(Debug, Clone)]
pub struct SparseFrontier<T> {
    capacity: usize,
    rows: Vec<SparseVec<T>>,
}

impl<T> SparseFrontier<T> {
    /// Wrap `k` per-source sparse vectors; every one must have the shared
    /// `capacity`.
    pub fn new(capacity: usize, rows: Vec<SparseVec<T>>) -> Result<Self> {
        for r in &rows {
            check_dims("frontier row capacity", capacity, r.capacity())?;
        }
        Ok(SparseFrontier { capacity, rows })
    }

    /// Build from per-source entry lists (unsorted, duplicate indices are
    /// an error — a frontier holds one value per vertex per source).
    pub fn from_entries(capacity: usize, entries: Vec<Vec<(usize, T)>>) -> Result<Self> {
        let rows = entries
            .into_iter()
            .map(|pairs| SparseVec::from_pairs(capacity, pairs))
            .collect::<Result<Vec<_>>>()?;
        Ok(SparseFrontier { capacity, rows })
    }

    /// A frontier of `k` empty per-source vectors.
    pub fn empty(capacity: usize, k: usize) -> Self {
        SparseFrontier { capacity, rows: (0..k).map(|_| SparseVec::new(capacity)).collect() }
    }

    /// Shared index-space size (the `n` of the `n×k` matrix).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of sources in the batch (the `k`).
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Total stored entries across all sources.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.nnz()).sum()
    }

    /// Source `s`'s frontier.
    pub fn row(&self, s: usize) -> &SparseVec<T> {
        &self.rows[s]
    }

    /// All per-source frontiers, batch order.
    pub fn rows(&self) -> &[SparseVec<T>] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_unsorted_entries() {
        let f = SparseFrontier::from_entries(
            10,
            vec![vec![(3, 1.0), (1, 2.0)], vec![], vec![(9, 5.0)]],
        )
        .unwrap();
        assert_eq!(f.k(), 3);
        assert_eq!(f.capacity(), 10);
        assert_eq!(f.nnz(), 3);
        assert_eq!(f.row(0), &SparseVec::from_sorted(10, vec![1, 3], vec![2.0, 1.0]).unwrap());
        assert_eq!(f.row(2).indices(), &[9]);
    }

    #[test]
    fn rejects_out_of_range_and_duplicates() {
        assert!(SparseFrontier::from_entries(4, vec![vec![(4, 1.0)]]).is_err());
        assert!(SparseFrontier::from_entries(4, vec![vec![(1, 1.0), (1, 2.0)]]).is_err());
    }

    #[test]
    fn capacity_mismatch_is_error() {
        let r = SparseVec::<u32>::new(5);
        assert!(SparseFrontier::new(4, vec![r]).is_err());
    }

    #[test]
    fn empty_batch() {
        let f = SparseFrontier::<usize>::empty(7, 0);
        assert_eq!(f.k(), 0);
        assert_eq!(f.nnz(), 0);
    }
}
