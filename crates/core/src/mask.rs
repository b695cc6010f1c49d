//! Masks — the paper's §V "future work", implemented.
//!
//! "efficient implementations of novel concepts in GraphBLAS, such as
//! masks, have not been attempted in distributed memory before" (§V). A
//! mask restricts where an operation may write output entries. This module
//! provides vector masks in the two representations the library actually
//! uses:
//!
//! * a **sorted index list** (the structure of a sparse vector), and
//! * a **dense boolean bitmap** (e.g. a BFS `visited` array),
//!
//! each optionally **complemented** (GraphBLAS `GrB_COMP`): BFS's
//! "not yet visited" filter is `VecMask::dense(&visited).complement()`.

use crate::container::{DenseVec, SparseVec};
use crate::par::Counters;

#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    /// Sorted indices where the mask is set.
    Sorted(&'a [usize]),
    /// Bitmap; `true` means set.
    Dense(&'a [bool]),
}

/// A (possibly complemented) mask over vector indices.
#[derive(Debug, Clone, Copy)]
pub struct VecMask<'a> {
    repr: Repr<'a>,
    complement: bool,
}

impl<'a> VecMask<'a> {
    /// Structural mask: set wherever the sparse vector stores an entry.
    pub fn structural<T>(v: &'a SparseVec<T>) -> Self {
        VecMask { repr: Repr::Sorted(v.indices()), complement: false }
    }

    /// Mask from an explicit sorted index list.
    pub fn from_sorted_indices(indices: &'a [usize]) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        VecMask { repr: Repr::Sorted(indices), complement: false }
    }

    /// Mask from a dense boolean vector (`true` = set).
    pub fn dense(v: &'a DenseVec<bool>) -> Self {
        Self::bitmap(v.as_slice(), false)
    }

    /// Mask from a borrowed bitmap (`true` = set), complemented when
    /// `complement` — e.g. the window of a distributed mask that one
    /// locale copied over its column range, with the mask's own flag.
    pub fn bitmap(bits: &'a [bool], complement: bool) -> Self {
        VecMask { repr: Repr::Dense(bits), complement }
    }

    /// Flip the mask (GraphBLAS descriptor `GrB_COMP`).
    pub fn complement(mut self) -> Self {
        self.complement = !self.complement;
        self
    }

    /// Whether the complement flag is set.
    pub fn is_complemented(&self) -> bool {
        self.complement
    }

    /// The length of a bitmap mask (`None` for an index list, which has
    /// none). [`VecMask::allows`] reads past the end of a bitmap as "not
    /// set" — *allowed* under a complement — so a kernel holds this to its
    /// output dimension at entry.
    pub fn dense_len(&self) -> Option<usize> {
        match self.repr {
            Repr::Sorted(_) => None,
            Repr::Dense(bits) => Some(bits.len()),
        }
    }

    /// May the operation write index `i`? Charges the lookup cost
    /// (binary-search probes for the sorted repr, one random access for the
    /// bitmap) to `counters`.
    pub fn allows(&self, i: usize, counters: &mut Counters) -> bool {
        let set = match self.repr {
            Repr::Sorted(indices) => {
                // instrumented binary search
                let mut lo = 0usize;
                let mut hi = indices.len();
                let mut found = false;
                while lo < hi {
                    counters.search_probes += 1;
                    let mid = lo + (hi - lo) / 2;
                    match indices[mid].cmp(&i) {
                        std::cmp::Ordering::Less => lo = mid + 1,
                        std::cmp::Ordering::Greater => hi = mid,
                        std::cmp::Ordering::Equal => {
                            found = true;
                            break;
                        }
                    }
                }
                found
            }
            Repr::Dense(bits) => {
                counters.rand_access += 1;
                i < bits.len() && bits[i]
            }
        };
        set != self.complement
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

/// No mask: a convenience for call sites taking `Option<&VecMask>`.
pub const NO_MASK: Option<&VecMask<'static>> = None;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_mask_allows_stored_indices() {
        let v = SparseVec::from_sorted(10, vec![2, 5, 9], vec![1, 1, 1]).unwrap();
        let m = VecMask::structural(&v);
        let mut c = Counters::default();
        assert!(m.allows(2, &mut c));
        assert!(!m.allows(3, &mut c));
        assert!(c.search_probes > 0);
    }

    #[test]
    fn complement_flips() {
        let v = SparseVec::from_sorted(10, vec![2], vec![1]).unwrap();
        let m = VecMask::structural(&v).complement();
        let mut c = Counters::default();
        assert!(!m.allows(2, &mut c));
        assert!(m.allows(3, &mut c));
        assert!(m.is_complemented());
        // double complement is identity
        let m2 = m.complement();
        assert!(m2.allows(2, &mut c));
    }

    #[test]
    fn dense_mask() {
        let d = DenseVec::from_vec(vec![true, false, true]);
        let m = VecMask::dense(&d);
        let mut c = Counters::default();
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
