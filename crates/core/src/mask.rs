//! Masks — the paper's §V "future work", implemented.
//!
//! "efficient implementations of novel concepts in GraphBLAS, such as
//! masks, have not been attempted in distributed memory before" (§V). A
//! mask restricts where an operation may write output entries. A vector
//! mask here is one representation, the one every caller holds: a **dense
//! boolean bitmap** over the output's indices (e.g. a BFS `visited` array),
//! optionally **complemented** (GraphBLAS `GrB_COMP`): BFS's "not yet
//! visited" filter is `VecMask::dense(&visited).complement()`.

use crate::container::{DenseVec, SparseVec};
use crate::par::Counters;

/// A (possibly complemented) bitmap mask over vector indices.
#[derive(Debug, Clone, Copy)]
pub struct VecMask<'a> {
    /// `true` means set.
    bits: &'a [bool],
    complement: bool,
}

impl<'a> VecMask<'a> {
    /// Mask from a dense boolean vector (`true` = set).
    pub fn dense(v: &'a DenseVec<bool>) -> Self {
        Self::bitmap(v.as_slice(), false)
    }

    /// Mask from a borrowed bitmap (`true` = set), complemented when
    /// `complement` — e.g. the window of a distributed mask that one
    /// locale copied over its column range, with the mask's own flag.
    pub fn bitmap(bits: &'a [bool], complement: bool) -> Self {
        VecMask { bits, complement }
    }

    /// Flip the mask (GraphBLAS descriptor `GrB_COMP`).
    pub fn complement(mut self) -> Self {
        self.complement = !self.complement;
        self
    }

    /// The bitmap's length, the vector size it masks (`GrB_Vector_size`).
    /// [`VecMask::allows`] reads past its end as "not set" — *allowed*
    /// under a complement — so a kernel holds this to its output
    /// dimension at entry.
    pub fn size(&self) -> usize {
        self.bits.len()
    }

    /// May the operation write index `i`? Charges the lookup (one random
    /// access) to `counters`.
    pub fn allows(&self, i: usize, counters: &mut Counters) -> bool {
        counters.rand_access += 1;
        (i < self.bits.len() && self.bits[i]) != self.complement
    }

    /// Apply the mask to a sparse vector, dropping disallowed entries.
    pub fn filter<T: Copy>(&self, v: &SparseVec<T>, counters: &mut Counters) -> SparseVec<T> {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &val) in v.iter() {
            if self.allows(i, counters) {
                indices.push(i);
                values.push(val);
            }
        }
        SparseVec::from_sorted(v.capacity(), indices, values)
            .expect("filtering preserves order and bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_flips() {
        let d = DenseVec::from_vec(vec![false, false, true]);
        let m = VecMask::dense(&d).complement();
        let mut c = Counters::default();
        assert!(!m.allows(2, &mut c));
        assert!(m.allows(1, &mut c));
        // double complement is identity
        let m2 = m.complement();
        assert!(m2.allows(2, &mut c));
        assert!(!m2.allows(1, &mut c));
    }

    #[test]
    fn dense_mask() {
        let d = DenseVec::from_vec(vec![true, false, true]);
        let m = VecMask::dense(&d);
        let mut c = Counters::default();
        assert_eq!(m.size(), 3);
        assert!(m.allows(0, &mut c));
        assert!(!m.allows(1, &mut c));
        // out of range is "not set"
        assert!(!m.allows(99, &mut c));
        assert!(m.complement().allows(99, &mut c));
        assert!(c.rand_access > 0);
    }

    #[test]
    fn filter_drops_disallowed() {
        let x = SparseVec::from_sorted(6, vec![0, 2, 4], vec![10, 20, 30]).unwrap();
        let visited = DenseVec::from_vec(vec![true, false, false, false, true, false]);
        let not_visited = VecMask::dense(&visited).complement();
        let mut c = Counters::default();
        let y = not_visited.filter(&x, &mut c);
        assert_eq!(y.indices(), &[2]);
        assert_eq!(y.values(), &[20]);
        assert_eq!(y.capacity(), 6);
    }
}
