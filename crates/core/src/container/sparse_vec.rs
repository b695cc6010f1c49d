//! Chapel-style sparse vectors: a sorted index array plus a value array.

use crate::error::{GblasError, Result};

/// A sparse vector over the domain `0..capacity`.
///
/// Invariants (checked by the constructors, preserved by every method):
/// * `indices` is strictly increasing (sorted, no duplicates);
/// * every index is `< capacity`;
/// * `indices.len() == values.len()`.
///
/// Terminology follows §II-A of the paper: `capacity(x)` is the number of
/// entries the vector *can* store (its dimension), `nnz(x)` the number it
/// *does* store, and `f = nnz(x)/capacity(x)` its density.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec<T> {
    capacity: usize,
    indices: Vec<usize>,
    values: Vec<T>,
}

impl<T> SparseVec<T> {
    /// An empty sparse vector with the given capacity (dimension).
    pub fn new(capacity: usize) -> Self {
        SparseVec { capacity, indices: Vec::new(), values: Vec::new() }
    }

    /// Build from already-sorted, duplicate-free indices. Validates every
    /// invariant and reports the first violation.
    pub fn from_sorted(capacity: usize, indices: Vec<usize>, values: Vec<T>) -> Result<Self> {
        if indices.len() != values.len() {
            return Err(GblasError::InvalidContainer(format!(
                "index/value length mismatch: {} vs {}",
                indices.len(),
                values.len()
            )));
        }
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(GblasError::InvalidContainer(format!(
                    "indices not strictly increasing at {}..={}",
                    w[0], w[1]
                )));
            }
        }
        if let Some(&last) = indices.last() {
            if last >= capacity {
                return Err(GblasError::IndexOutOfBounds { index: last, capacity });
            }
        }
        Ok(SparseVec { capacity, indices, values })
    }

    /// The vector's dimension (`capacity(x)` in the paper).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored entries (`nnz(x)`).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Density `f = nnz/capacity` (§II-A). Zero for a zero-capacity vector.
    pub fn density(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.capacity as f64
        }
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The value array, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable values (indices stay fixed, so invariants hold).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Iterate `(index, &value)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.indices.iter().copied().zip(self.values.iter())
    }

    /// Random access by binary search — `O(log nnz)`, the cost §III-B
    /// blames for Assign1's slowness.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.indices.binary_search(&index).ok().map(|p| &self.values[p])
    }

    /// Like [`SparseVec::get`], but additionally counts the number of
    /// binary-search probe steps into `probes`, so instrumented code paths
    /// can charge the logarithmic access cost they actually incurred.
    pub fn get_probed(&self, index: usize, probes: &mut u64) -> Option<&T> {
        let mut lo = 0usize;
        let mut hi = self.indices.len();
        while lo < hi {
            *probes += 1;
            let mid = lo + (hi - lo) / 2;
            match self.indices[mid].cmp(&index) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(&self.values[mid]),
            }
        }
        None
    }

    /// Overwrite the value at an *existing* index (binary search +
    /// write, counting probes). Returns an error if the index is not
    /// present — growing a sorted array one element at a time is O(nnz)
    /// per insert and deliberately not offered.
    pub fn set_existing(&mut self, index: usize, value: T, probes: &mut u64) -> Result<()> {
        let mut lo = 0usize;
        let mut hi = self.indices.len();
        while lo < hi {
            *probes += 1;
            let mid = lo + (hi - lo) / 2;
            match self.indices[mid].cmp(&index) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    self.values[mid] = value;
                    return Ok(());
                }
            }
        }
        Err(GblasError::InvalidArgument(format!("index {index} not present in sparse vector")))
    }

    /// Drop all entries, keeping the capacity — Chapel's `DA.clear()`
    /// (Listing 4, line 4).
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Replace the index set wholesale (Chapel's `DA += DB` after a clear).
    /// Values are set to `fill`.
    pub fn assign_domain(&mut self, indices: &[usize], fill: T) -> Result<()>
    where
        T: Copy,
    {
        // Validate against this vector's capacity before committing.
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(GblasError::InvalidContainer(
                    "assign_domain: indices not strictly increasing".into(),
                ));
            }
        }
        if let Some(&last) = indices.last() {
            if last >= self.capacity {
                return Err(GblasError::IndexOutOfBounds { index: last, capacity: self.capacity });
            }
        }
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.values.clear();
        self.values.resize(indices.len(), fill);
        Ok(())
    }

    /// Decompose into `(capacity, indices, values)`.
    pub fn into_parts(self) -> (usize, Vec<usize>, Vec<T>) {
        (self.capacity, self.indices, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let v = SparseVec::from_sorted(10, vec![1, 4, 7], vec![1.0, 4.0, 7.0]).unwrap();
        assert_eq!(v.capacity(), 10);
        assert_eq!(v.nnz(), 3);
        assert!((v.density() - 0.3).abs() < 1e-12);
        assert_eq!(v.get(4), Some(&4.0));
        assert_eq!(v.get(5), None);
    }

    #[test]
    fn rejects_unsorted_and_oob() {
        assert!(SparseVec::from_sorted(10, vec![4, 1], vec![0, 0]).is_err());
        assert!(SparseVec::from_sorted(10, vec![1, 1], vec![0, 0]).is_err());
        assert!(SparseVec::from_sorted(10, vec![10], vec![0]).is_err());
        assert!(SparseVec::from_sorted(10, vec![1], Vec::<i32>::new()).is_err());
    }

    #[test]
    fn probed_get_counts_probes_logarithmically() {
        let n = 1 << 12;
        let v = SparseVec::from_sorted(n, (0..n).collect(), vec![0u8; n]).unwrap();
        let mut probes = 0;
        assert!(v.get_probed(1234, &mut probes).is_some());
        assert!((1..=13).contains(&probes), "probes = {probes}");
        let mut probes_miss = 0;
        let w = SparseVec::from_sorted(n, (0..n).step_by(2).collect(), vec![0u8; n / 2]).unwrap();
        assert!(w.get_probed(5, &mut probes_miss).is_none());
        assert!(probes_miss >= 10, "miss probes = {probes_miss}");
    }

    #[test]
    fn set_existing_only_overwrites() {
        let mut v = SparseVec::from_sorted(8, vec![2, 5], vec![1, 1]).unwrap();
        let mut probes = 0;
        v.set_existing(5, 9, &mut probes).unwrap();
        assert_eq!(v.get(5), Some(&9));
        assert!(v.set_existing(3, 9, &mut probes).is_err());
    }

    #[test]
    fn clear_and_assign_domain() {
        let mut v = SparseVec::from_sorted(8, vec![1], vec![3.0]).unwrap();
        v.clear();
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.capacity(), 8);
        v.assign_domain(&[0, 3, 7], 0.5).unwrap();
        assert_eq!(v.indices(), &[0, 3, 7]);
        assert_eq!(v.values(), &[0.5, 0.5, 0.5]);
        assert!(v.assign_domain(&[8], 0.0).is_err());
        assert!(v.assign_domain(&[3, 3], 0.0).is_err());
    }

    #[test]
    fn density_of_zero_capacity_is_zero() {
        let v = SparseVec::<f64>::new(0);
        assert_eq!(v.density(), 0.0);
    }
}
