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
//! Conversion from/to [`CsrMatrix`] is lossless — one counting sort,
//! `O(nnz + dim)`, each way — and sparse SUMMA slices a
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

/// The one counting sort both conversions run: the entries of `lines`,
/// visited in ascending line order as `(line id, keys, values)`, regrouped
/// by key — returns per-key extents (`nkeys + 1` offsets) and each entry's
/// line id and value in key-major order, line ids ascending within a key.
/// Uninstrumented: the `extract` charge prices the conversion.
fn regroup<'a, T: Copy + 'a>(
    nkeys: usize,
    nnz: usize,
    first: Option<T>,
    lines: impl Iterator<Item = (usize, &'a [usize], &'a [T])> + Clone,
) -> (Vec<usize>, Vec<usize>, Vec<T>) {
    let mut ptr = vec![0usize; nkeys + 1];
    for (_, keys, _) in lines.clone() {
        for &k in keys {
            ptr[k + 1] += 1;
        }
    }
    for k in 0..nkeys {
        ptr[k + 1] += ptr[k];
    }
    let mut cursor = ptr[..nkeys].to_vec();
    let (mut ids, mut vals) = (vec![0usize; nnz], first.map_or_else(Vec::new, |v| vec![v; nnz]));
    for (line, keys, values) in lines {
        for (&k, &v) in keys.iter().zip(values) {
            ids[cursor[k]] = line;
            vals[cursor[k]] = v;
            cursor[k] += 1;
        }
    }
    (ptr, ids, vals)
}

impl<T: Copy> DcscBlock<T> {
    /// Lossless conversion from CSR: the entries regrouped by column
    /// (`regroup`, rows ascending within each column); only the empty
    /// columns' extents are dropped.
    pub fn from_csr(a: &CsrMatrix<T>) -> Self {
        let rows = (0..a.nrows()).map(|i| {
            let (cols, vals) = a.row(i);
            (i, cols, vals)
        });
        let (colptr, ir, val) = regroup(a.ncols(), a.nnz(), a.values().first().copied(), rows);
        let (mut jc, mut cp) = (Vec::new(), vec![0usize]);
        for (j, w) in colptr.windows(2).enumerate() {
            if w[1] > w[0] {
                jc.push(j);
                cp.push(w[1]);
            }
        }
        DcscBlock { nrows: a.nrows(), ncols: a.ncols(), jc, cp, ir, val }
    }

    /// Lossless conversion back to CSR: the same counting sort regroups
    /// the columns' entries by row (columns ascending within each row).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let span = |c: usize| self.cp[c]..self.cp[c + 1];
        let cols =
            self.jc.iter().enumerate().map(|(c, &j)| (j, &self.ir[span(c)], &self.val[span(c)]));
        let (rowptr, colidx, values) =
            regroup(self.nrows, self.nnz(), self.val.first().copied(), cols);
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, rowptr, colidx, values)
            .expect("a DCSC block regroups into valid CSR rows")
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

    /// The conversions as they were before the counting sort: a stable
    /// comparison sort of the entry triplets each way.
    fn from_csr_by_sort<T: Copy>(a: &CsrMatrix<T>) -> DcscBlock<T> {
        let mut triples: Vec<(usize, usize, T)> = a.iter().map(|(i, j, v)| (j, i, *v)).collect();
        triples.sort_by_key(|&(j, _, _)| j);
        let (mut jc, mut cp, mut ir, mut val) = (Vec::new(), vec![0usize], Vec::new(), Vec::new());
        for (j, i, v) in triples {
            if jc.last() != Some(&j) {
                jc.push(j);
                cp.push(ir.len());
            }
            ir.push(i);
            val.push(v);
            *cp.last_mut().unwrap() = ir.len();
        }
        DcscBlock { nrows: a.nrows(), ncols: a.ncols(), jc, cp, ir, val }
    }

    fn to_csr_by_sort<T: Copy>(d: &DcscBlock<T>) -> CsrMatrix<T> {
        let mut triplets = Vec::new();
        for (c, &j) in d.jc.iter().enumerate() {
            for e in d.cp[c]..d.cp[c + 1] {
                triplets.push((d.ir[e], j, d.val[e]));
            }
        }
        triplets.sort_by_key(|&(i, _, _)| i);
        CsrMatrix::from_triplets(d.nrows, d.ncols, &triplets).unwrap()
    }

    #[test]
    fn counting_sort_conversions_match_the_triplet_sort_on_rmat_blocks() {
        use crate::{DistCsrMatrix, ProcGrid};
        for (scale, ef, seed) in [(9u32, 8usize, 3u64), (10, 4, 5), (8, 16, 7)] {
            let a = gen::rmat(scale, ef, seed);
            for (pr, pc) in [(1, 1), (2, 2), (4, 2), (8, 8)] {
                let da = DistCsrMatrix::from_global(&a, ProcGrid::new(pr, pc));
                for l in 0..pr * pc {
                    let block = da.block(l);
                    let d = DcscBlock::from_csr(block);
                    let old = from_csr_by_sort(block);
                    assert_eq!(d, old, "rmat {scale}:{ef} grid {pr}x{pc} block {l}");
                    // bit-identical values too, not only equal ones
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&d.val), bits(&old.val));
                    let back = d.to_csr();
                    assert_eq!(back, to_csr_by_sort(&old));
                    assert_eq!(back, *block);
                }
            }
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
