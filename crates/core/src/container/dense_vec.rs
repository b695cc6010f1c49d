//! Dense vectors.

use crate::error::{GblasError, Result};

/// A dense vector: every position `0..len` holds a value.
///
/// Dense vectors are the `y` operand of the paper's sparse×dense
/// `eWiseMult` (Listing 6), the backing arrays of the SPA (Fig 6), and the
/// natural output of `reduce`-by-row.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVec<T> {
    values: Vec<T>,
}

impl<T> DenseVec<T> {
    /// A vector of `len` copies of `fill`.
    pub fn filled(len: usize, fill: T) -> Self
    where
        T: Clone,
    {
        DenseVec { values: vec![fill; len] }
    }

    /// Wrap an existing `Vec`.
    pub fn from_vec(values: Vec<T>) -> Self {
        DenseVec { values }
    }

    /// Build by evaluating `f` at every index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> T) -> Self {
        DenseVec { values: (0..len).map(f).collect() }
    }

    /// The vector's length (== capacity == nnz for dense storage).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when length is zero.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Checked element read.
    pub fn get(&self, i: usize) -> Result<&T> {
        self.values
            .get(i)
            .ok_or(GblasError::IndexOutOfBounds { index: i, capacity: self.values.len() })
    }

    /// Checked element write.
    pub fn set(&mut self, i: usize, v: T) -> Result<()> {
        let cap = self.values.len();
        match self.values.get_mut(i) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(GblasError::IndexOutOfBounds { index: i, capacity: cap }),
        }
    }

    /// Borrow as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// Consume into the underlying `Vec`.
    pub fn into_vec(self) -> Vec<T> {
        self.values
    }
}

impl<T> std::ops::Index<usize> for DenseVec<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        &self.values[i]
    }
}

impl<T> std::ops::IndexMut<usize> for DenseVec<T> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(DenseVec::filled(3, 7).as_slice(), &[7, 7, 7]);
        assert_eq!(DenseVec::from_fn(3, |i| i * 2).as_slice(), &[0, 2, 4]);
    }

    #[test]
    fn checked_access() {
        let mut v = DenseVec::filled(2, 0);
        v.set(1, 9).unwrap();
        assert_eq!(*v.get(1).unwrap(), 9);
        assert!(v.get(2).is_err());
        assert!(v.set(2, 1).is_err());
    }

    #[test]
    fn indexing_sugar() {
        let mut v = DenseVec::filled(2, 1);
        v[0] = 5;
        assert_eq!(v[0], 5);
    }
}
