//! Block-distributed sparse vectors.

use crate::grid::BlockDist;
use gblas_core::container::SparseVec;
use gblas_core::error::{GblasError, Result};

/// A sparse vector over `0..capacity`, block-partitioned across `p`
/// locales in row-major locale order (the layout Listing 8 indexes with
/// `locDoms[l(1)*pc + i]`).
///
/// Each shard is an ordinary [`SparseVec`] whose stored indices are
/// *global* and confined to the shard's block range; conversions to and
/// from a global vector are exact round trips.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSparseVec<T> {
    dist: BlockDist,
    shards: Vec<SparseVec<T>>,
}

impl<T: Copy> DistSparseVec<T> {
    /// Distribute a global vector across `p` locales.
    pub fn from_global(v: &SparseVec<T>, p: usize) -> Self {
        let dist = BlockDist::new(v.capacity(), p);
        let idx = v.indices();
        let vals = v.values();
        let mut shards = Vec::with_capacity(p);
        let mut lo = 0usize;
        for b in 0..p {
            let range = dist.range(b);
            let mut hi = lo;
            while hi < idx.len() && idx[hi] < range.end {
                hi += 1;
            }
            shards.push(
                SparseVec::from_sorted(v.capacity(), idx[lo..hi].to_vec(), vals[lo..hi].to_vec())
                    .expect("slices of a valid vector stay valid"),
            );
            lo = hi;
        }
        DistSparseVec { dist, shards }
    }

    /// An empty distributed vector.
    pub fn empty(capacity: usize, p: usize) -> Self {
        let dist = BlockDist::new(capacity, p);
        let shards = (0..p).map(|_| SparseVec::new(capacity)).collect();
        DistSparseVec { dist, shards }
    }

    /// Assemble shards produced locale-by-locale. Each shard's indices
    /// must fall inside its block range; validated.
    pub fn from_shards(capacity: usize, shards: Vec<SparseVec<T>>) -> Result<Self> {
        let p = shards.len().max(1);
        let dist = BlockDist::new(capacity, p);
        for (b, s) in shards.iter().enumerate() {
            let range = dist.range(b);
            if let (Some(&first), Some(&last)) = (s.indices().first(), s.indices().last()) {
                if first < range.start || last >= range.end {
                    return Err(GblasError::InvalidContainer(format!(
                        "shard {b} holds indices outside its block {range:?}"
                    )));
                }
            }
        }
        Ok(DistSparseVec { dist, shards })
    }

    /// The block partition.
    pub fn dist(&self) -> BlockDist {
        self.dist
    }

    /// Number of locales.
    pub fn locales(&self) -> usize {
        self.shards.len()
    }

    /// Vector dimension.
    pub fn capacity(&self) -> usize {
        self.dist.n()
    }

    /// Global number of stored entries.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(|s| s.nnz()).sum()
    }

    /// Borrow locale `l`'s shard.
    pub fn shard(&self, l: usize) -> &SparseVec<T> {
        &self.shards[l]
    }

    /// All shards in locale order — the shape
    /// [`crate::DistCtx::for_each_locale_state`] splits into one disjoint
    /// `&mut` per locale task.
    pub fn shards_mut(&mut self) -> &mut [SparseVec<T>] {
        &mut self.shards
    }

    /// Gather into a single global vector (test/verification path — on a
    /// real machine this is the expensive operation the paper avoids).
    pub fn to_global(&self) -> SparseVec<T> {
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for s in &self.shards {
            indices.extend_from_slice(s.indices());
            values.extend_from_slice(s.values());
        }
        SparseVec::from_sorted(self.capacity(), indices, values)
            .expect("block-ordered shards concatenate sorted")
    }

    /// Which locale owns global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        self.dist.owner(i)
    }
}

/// A dense vector block-partitioned across `p` locales — the distributed
/// `y` operand of eWiseMult (Listing 6's `lyArrs`) and the backing store
/// of the global SPA the distributed SpMSpV scatters into.
#[derive(Debug, Clone, PartialEq)]
pub struct DistDenseVec<T> {
    dist: BlockDist,
    segments: Vec<Vec<T>>,
}

impl<T: Copy> DistDenseVec<T> {
    /// Distribute a global dense vector.
    pub fn from_global(v: &gblas_core::container::DenseVec<T>, p: usize) -> Self {
        let dist = BlockDist::new(v.len(), p);
        let segments = (0..p).map(|b| v.as_slice()[dist.range(b)].to_vec()).collect();
        DistDenseVec { dist, segments }
    }

    /// A distributed vector of `len` copies of `fill`.
    pub fn filled(len: usize, fill: T, p: usize) -> Self {
        let dist = BlockDist::new(len, p);
        let segments = (0..p).map(|b| vec![fill; dist.size(b)]).collect();
        DistDenseVec { dist, segments }
    }

    /// Assemble from per-locale segments (validated against the block
    /// partition's sizes).
    pub fn from_segments(len: usize, segments: Vec<Vec<T>>) -> Result<Self> {
        let p = segments.len().max(1);
        let dist = BlockDist::new(len, p);
        for (b, s) in segments.iter().enumerate() {
            if s.len() != dist.size(b) {
                return Err(GblasError::InvalidContainer(format!(
                    "segment {b} has length {} but block size is {}",
                    s.len(),
                    dist.size(b)
                )));
            }
        }
        Ok(DistDenseVec { dist, segments })
    }

    /// The block partition.
    pub fn dist(&self) -> BlockDist {
        self.dist
    }

    /// Global length.
    pub fn len(&self) -> usize {
        self.dist.n()
    }

    /// True when the global length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of locales.
    pub fn locales(&self) -> usize {
        self.segments.len()
    }

    /// Locale `l`'s segment (local coordinates: global index
    /// `dist.range(l).start + k`).
    pub fn segment(&self, l: usize) -> &[T] {
        &self.segments[l]
    }

    /// Mutable segment access.
    pub fn segment_mut(&mut self, l: usize) -> &mut Vec<T> {
        &mut self.segments[l]
    }

    /// Overwrite `buf` with the entries in `windows` — `(owner, lo, hi)`
    /// global ranges, each inside `owner`'s block — concatenated in order:
    /// the copy half of a bitmap gather (the caller logs the messages).
    pub fn read_windows(&self, windows: &[(usize, usize, usize)], buf: &mut Vec<T>) {
        buf.clear();
        for &(owner, lo, hi) in windows {
            let start = self.dist.range(owner).start;
            buf.extend_from_slice(&self.segments[owner][lo - start..hi - start]);
        }
    }

    /// Gather to a global dense vector (verification path).
    pub fn to_global(&self) -> gblas_core::container::DenseVec<T> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.segments {
            out.extend_from_slice(s);
        }
        gblas_core::container::DenseVec::from_vec(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;

    #[test]
    fn round_trip_distribution() {
        let v = gen::random_sparse_vec(1000, 137, 9);
        for p in [1, 2, 4, 7, 16] {
            let d = DistSparseVec::from_global(&v, p);
            assert_eq!(d.locales(), p);
            assert_eq!(d.nnz(), v.nnz());
            assert_eq!(d.to_global(), v);
        }
    }

    #[test]
    fn shards_respect_block_ranges() {
        let v = gen::random_sparse_vec(100, 40, 2);
        let d = DistSparseVec::from_global(&v, 8);
        for l in 0..8 {
            let range = d.dist().range(l);
            for &i in d.shard(l).indices() {
                assert!(range.contains(&i), "locale {l} index {i} outside {range:?}");
            }
        }
    }

    #[test]
    fn from_shards_validates_ranges() {
        let good = SparseVec::from_sorted(10, vec![0], vec![1.0]).unwrap();
        let bad = SparseVec::from_sorted(10, vec![0], vec![1.0]).unwrap(); // 0 not in second block
        assert!(DistSparseVec::from_shards(10, vec![good.clone(), SparseVec::new(10)]).is_ok());
        assert!(DistSparseVec::from_shards(10, vec![SparseVec::new(10), bad]).is_err());
    }

    #[test]
    fn owner_matches_shard_placement() {
        let v = gen::random_sparse_vec(500, 100, 5);
        let d = DistSparseVec::from_global(&v, 6);
        for (i, _) in v.iter() {
            let o = d.owner(i);
            assert!(d.shard(o).get(i).is_some());
        }
    }

    #[test]
    fn empty_vector() {
        let d = DistSparseVec::<f64>::empty(64, 4);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.to_global().nnz(), 0);
    }

    #[test]
    fn dense_round_trip() {
        let v = gen::random_dense_bool(101, 0.4, 8);
        for p in [1, 3, 8] {
            let d = DistDenseVec::from_global(&v, p);
            assert_eq!(d.locales(), p);
            assert_eq!(d.to_global(), v);
            let total: usize = (0..p).map(|l| d.segment(l).len()).sum();
            assert_eq!(total, 101);
        }
    }

    #[test]
    fn dense_filled_and_mutation() {
        let mut d = DistDenseVec::filled(10, 0u8, 3);
        d.segment_mut(1)[0] = 7;
        let g = d.to_global();
        let start = d.dist().range(1).start;
        assert_eq!(g[start], 7);
    }
}
