//! DCSC — doubly compressed sparse columns for hypersparse blocks.
//!
//! At `p` locales each block of a 2-D-distributed matrix holds roughly
//! `nnz/p` entries over an `n/√p`-sized local index range, so past the
//! paper's 64 nodes `nnz/p ≪ n/√p` and a CSR block's row-pointer array
//! dominates both its memory footprint and its broadcast volume — the
//! hypersparsity regime CombBLAS addresses with doubly compressed blocks
//! (Buluç & Gilbert, "Parallel Sparse Matrix-Matrix Multiplication and
//! Indexing"). [`DcscBlock`] stores only the *nonempty* columns:
//!
//! ```text
//!   jc : ids of the nonempty columns, ascending           (len = nzc)
//!   cp : offsets into ir/val, one span per nonempty col   (len = nzc+1)
//!   ir : row indices, ascending within each column        (len = nnz)
//!   val: values, parallel to ir                           (len = nnz)
//! ```
//!
//! Conversion from/to [`CsrMatrix`] is lossless, and sparse SUMMA slices a
//! DCSC block by a *column range* with two binary searches on `jc` instead
//! of an `O(nrows)` pointer scan — the structural win that makes
//! multi-stage broadcasts affordable on hypersparse blocks.

use gblas_core::container::CsrMatrix;

/// Per-block storage format, chosen by [`choose_format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFormat {
    /// Plain CSR: row pointers over every local row.
    Csr,
    /// Doubly compressed: only nonempty columns are represented.
    Dcsc,
}

impl BlockFormat {
    /// Stable lowercase name for trace attributes.
    pub fn name(self) -> &'static str {
        match self {
            BlockFormat::Csr => "csr",
            BlockFormat::Dcsc => "dcsc",
        }
    }
}

/// A block is hypersparse when fewer than `1/HYPERSPARSE_DEN` of its
/// dimension is populated — the CombBLAS `nnz < n/2` switch.
pub const HYPERSPARSE_DEN: usize = 2;

/// Representation policy: doubly compress a block when its nonzeros are
/// sparse relative to its dimension (`nnz · HYPERSPARSE_DEN < dim`), so
/// the pointer arrays scale with `nnz` instead of the block side.
pub fn choose_format(nnz: usize, dim: usize) -> BlockFormat {
    if nnz * HYPERSPARSE_DEN < dim {
        BlockFormat::Dcsc
    } else {
        BlockFormat::Csr
    }
}

/// Wire bytes for broadcasting a full CSR block: the row-pointer array
/// (`nrows+1` words) plus one index word and one value per entry.
pub fn csr_wire_bytes(nrows: usize, nnz: usize, elem: usize) -> u64 {
    let w = std::mem::size_of::<usize>();
    ((nrows + 1) * w + nnz * (w + elem)) as u64
}

/// Wire bytes for broadcasting a full DCSC block: `jc` + `cp`
/// (`2·nzc + 1` words) plus one index word and one value per entry.
pub fn dcsc_wire_bytes(nzc: usize, nnz: usize, elem: usize) -> u64 {
    let w = std::mem::size_of::<usize>();
    ((2 * nzc + 1) * w + nnz * (w + elem)) as u64
}

/// Wire bytes for a compressed stage slice: `(id, len)` per nonempty
/// row/column plus one index word and one value per entry.
pub fn slice_wire_bytes(nz_lines: usize, nnz: usize, elem: usize) -> u64 {
    let w = std::mem::size_of::<usize>();
    (2 * nz_lines * w + nnz * (w + elem)) as u64
}

/// A doubly compressed sparse block (see module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct DcscBlock<T> {
    nrows: usize,
    ncols: usize,
    jc: Vec<usize>,
    cp: Vec<usize>,
    ir: Vec<usize>,
    val: Vec<T>,
}

impl<T: Copy> DcscBlock<T> {
    /// Lossless conversion from CSR. Entries are regrouped column-major;
    /// a stable sort on the row-major entry stream keeps `ir` sorted
    /// within each column.
    pub fn from_csr(a: &CsrMatrix<T>) -> Self {
        let (nrows, ncols, nnz) = (a.nrows(), a.ncols(), a.nnz());
        let mut triples: Vec<(usize, usize, T)> = a.iter().map(|(i, j, v)| (j, i, *v)).collect();
        triples.sort_by_key(|&(j, _, _)| j);
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut ir = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        for (j, i, v) in triples {
            if jc.last() != Some(&j) {
                jc.push(j);
                cp.push(ir.len());
            }
            ir.push(i);
            val.push(v);
            *cp.last_mut().expect("cp is never empty") = ir.len();
        }
        DcscBlock { nrows, ncols, jc, cp, ir, val }
    }

    /// Lossless conversion back to CSR (row-major regrouping).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut triplets: Vec<(usize, usize, T)> = Vec::with_capacity(self.nnz());
        for (c, &j) in self.jc.iter().enumerate() {
            for e in self.cp[c]..self.cp[c + 1] {
                triplets.push((self.ir[e], j, self.val[e]));
            }
        }
        // column-major visit order: stable sort by row keeps columns
        // ascending within each row
        triplets.sort_by_key(|&(i, _, _)| i);
        CsrMatrix::from_triplets(self.nrows, self.ncols, &triplets)
            .expect("DCSC round-trip cannot produce invalid triplets")
    }

    /// Number of rows in the block.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns in the block.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of *nonempty* columns.
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Nonempty column ids (ascending).
    pub fn jc(&self) -> &[usize] {
        &self.jc
    }

    /// Column pointer array (`nzc + 1` offsets into `ir`/`val`).
    pub fn cp(&self) -> &[usize] {
        &self.cp
    }

    /// Entries in the column range `[lo, hi)` without touching the other
    /// columns: two binary searches on `jc`, then a scan of just the
    /// covered spans. Returns `(jc index range, entry count)`.
    pub fn col_span(&self, lo: usize, hi: usize) -> (std::ops::Range<usize>, usize) {
        let start = self.jc.partition_point(|&j| j < lo);
        let end = self.jc.partition_point(|&j| j < hi);
        (start..end, self.cp[end] - self.cp[start])
    }

    /// What the column range `[lo, hi)` puts on the wire as a compressed
    /// stage slice, `(nonempty rows, entries)`: two `jc` probes, then only
    /// the covered entries are looked at.
    pub fn slice_header(&self, lo: usize, hi: usize) -> (usize, usize) {
        let (span, nnz) = self.col_span(lo, hi);
        let mut rows = self.ir[self.cp[span.start]..self.cp[span.end]].to_vec();
        rows.sort_unstable();
        rows.dedup();
        (rows.len(), nnz)
    }
}

/// [`DcscBlock::slice_header`] of a CSR block: one row-pointer scan plus
/// two binary probes per nonempty row — the `O(nrows)` scan DCSC blocks
/// avoid.
pub fn csr_slice_header<T>(a: &CsrMatrix<T>, lo: usize, hi: usize) -> (usize, usize) {
    let (mut nzr, mut nnz) = (0, 0);
    for i in 0..a.nrows() {
        let cols = a.row(i).0;
        let inside = cols.partition_point(|&j| j < hi) - cols.partition_point(|&j| j < lo);
        nzr += usize::from(inside > 0);
        nnz += inside;
    }
    (nzr, nnz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;

    #[test]
    fn csr_dcsc_round_trip_is_lossless() {
        for (n, deg, seed) in [(50usize, 3usize, 11u64), (80, 1, 12), (64, 7, 13)] {
            let a = gen::erdos_renyi(n, deg, seed);
            let d = DcscBlock::from_csr(&a);
            assert_eq!(d.nnz(), a.nnz());
            assert!(d.nzc() <= a.ncols());
            assert_eq!(d.to_csr(), a, "n={n} deg={deg}");
        }
    }

    #[test]
    fn empty_block_round_trips() {
        let a: CsrMatrix<f64> = CsrMatrix::empty(10, 10);
        let d = DcscBlock::from_csr(&a);
        assert_eq!(d.nzc(), 0);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.to_csr(), a);
    }

    #[test]
    fn slice_headers_count_the_column_range() {
        let a = gen::erdos_renyi(60, 4, 21);
        let d = DcscBlock::from_csr(&a);
        for (lo, hi) in [(0usize, 60usize), (0, 17), (17, 43), (43, 60), (30, 30)] {
            let inside = |i: usize| a.row(i).0.iter().filter(|&&j| lo <= j && j < hi).count();
            let nzr = (0..60).filter(|&i| inside(i) > 0).count();
            let nnz = (0..60).map(inside).sum();
            assert_eq!(d.slice_header(lo, hi), (nzr, nnz), "[{lo},{hi})");
            assert_eq!(csr_slice_header(&a, lo, hi), (nzr, nnz), "[{lo},{hi})");
        }
    }

    #[test]
    fn format_policy_switches_on_hypersparsity() {
        assert_eq!(choose_format(10, 100), BlockFormat::Dcsc);
        assert_eq!(choose_format(50, 100), BlockFormat::Csr);
        assert_eq!(choose_format(49, 100), BlockFormat::Dcsc);
        assert_eq!(choose_format(0, 1), BlockFormat::Dcsc);
    }

    #[test]
    fn dcsc_wire_bytes_beat_csr_when_hypersparse() {
        // 1024-row block with 64 entries in 60 distinct columns: the CSR
        // row-pointer array alone dwarfs the doubly compressed structure
        let csr = csr_wire_bytes(1024, 64, 8);
        let dcsc = dcsc_wire_bytes(60, 64, 8);
        assert!(dcsc < csr, "dcsc={dcsc} csr={csr}");
        // dense small block: CSR is fine and DCSC saves nothing much
        assert!(dcsc_wire_bytes(100, 400, 8) + 8 * 100 >= csr_wire_bytes(100, 400, 8));
    }
}
