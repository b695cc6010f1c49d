//! 2-D block-distributed CSR matrices.

use crate::grid::{BlockDist, ProcGrid};
use gblas_core::container::{CooMatrix, CsrMatrix, DupPolicy};
use gblas_core::error::Result;
use gblas_core::ops::mxm::{LeftOperand, RightOperand};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide generation counter: every construction of a distributed
/// matrix draws a fresh stamp, so a cached communication schedule can
/// tell "same matrix, same structure" from "rebuilt" with one integer
/// compare.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn fresh_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// An `nrows × ncols` sparse matrix distributed over a [`ProcGrid`]:
/// locale `(r, c)` owns the CSR block covering row range `r` of `pr` and
/// column range `c` of `pc` — Chapel's `Block` distribution with
/// `sparseLayoutType = CSR` (Listing 1).
///
/// Each block is an ordinary [`CsrMatrix`] in **local coordinates**: row
/// ids `0..block_rows`, column ids `0..block_cols`. The global position of
/// a block entry is `(row + row_range.start, col + col_range.start)`.
/// Local column coordinates mirror Listing 7's SPA, which is allocated
/// over the local block's column range `ciLow..ciHigh` only.
#[derive(Debug, Clone)]
pub struct DistCsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    grid: ProcGrid,
    row_dist: BlockDist,
    col_dist: BlockDist,
    blocks: Vec<CsrMatrix<T>>,
    /// Schedule-invalidation stamp; see [`DistCsrMatrix::generation`].
    gen: u64,
}

impl<T: PartialEq> PartialEq for DistCsrMatrix<T> {
    /// The generation stamp is cache-invalidation metadata, not content:
    /// two separately-built matrices with the same entries are equal.
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.grid == other.grid
            && self.row_dist == other.row_dist
            && self.col_dist == other.col_dist
            && self.blocks == other.blocks
    }
}

impl<T: Copy> DistCsrMatrix<T> {
    /// Distribute a global CSR matrix over `grid`.
    ///
    /// `O(nnz)` with no sorting: each sorted row is cut at the column-block
    /// starts by binary search and its pieces are appended to their blocks
    /// whole, so each block's entries arrive already in CSR order. A
    /// counting pass sizes every block exactly first.
    pub fn from_global(a: &CsrMatrix<T>, grid: ProcGrid) -> Self {
        let row_dist = BlockDist::new(a.nrows(), grid.pr());
        let col_dist = BlockDist::new(a.ncols(), grid.pc());
        let col_ranges: Vec<_> = (0..grid.pc()).map(|c| col_dist.range(c)).collect();
        let mut blocks = Vec::with_capacity(grid.locales());
        for r in 0..grid.pr() {
            let rows = row_dist.range(r);
            let mut nnz = vec![0usize; grid.pc()];
            for i in rows.clone() {
                for_each_cut(a.row(i).0, &col_ranges, |c, cut| nnz[c] += cut.len());
            }
            let mut parts: Vec<_> = nnz
                .iter()
                .map(|&n| {
                    let mut rowptr = Vec::with_capacity(rows.len() + 1);
                    rowptr.push(0);
                    (rowptr, Vec::with_capacity(n), Vec::with_capacity(n))
                })
                .collect();
            for i in rows.clone() {
                let (cols, vals) = a.row(i);
                for_each_cut(cols, &col_ranges, |c, cut| {
                    let (rowptr, colidx, values) = &mut parts[c];
                    let start = col_ranges[c].start;
                    colidx.extend(cols[cut.clone()].iter().map(|&j| j - start));
                    values.extend_from_slice(&vals[cut]);
                    rowptr.push(colidx.len());
                });
            }
            for (range, (rowptr, colidx, values)) in col_ranges.iter().zip(parts) {
                let block =
                    CsrMatrix::from_raw_parts(rows.len(), range.len(), rowptr, colidx, values)
                        .expect("cut sorted rows keep CSR order");
                blocks.push(block);
            }
        }
        DistCsrMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            grid,
            row_dist,
            col_dist,
            blocks,
            gen: fresh_gen(),
        }
    }

    /// Assemble from per-locale blocks in local coordinates. Each block's
    /// shape must match its grid cell's row/column ranges; validated.
    pub fn from_blocks(
        nrows: usize,
        ncols: usize,
        grid: ProcGrid,
        blocks: Vec<CsrMatrix<T>>,
    ) -> Result<Self> {
        use gblas_core::error::GblasError;
        if blocks.len() != grid.locales() {
            return Err(GblasError::InvalidContainer(format!(
                "{} blocks for a {}x{} grid",
                blocks.len(),
                grid.pr(),
                grid.pc()
            )));
        }
        let row_dist = BlockDist::new(nrows, grid.pr());
        let col_dist = BlockDist::new(ncols, grid.pc());
        for (l, b) in blocks.iter().enumerate() {
            let (r, c) = grid.coords(l);
            if b.nrows() != row_dist.size(r) || b.ncols() != col_dist.size(c) {
                return Err(GblasError::InvalidContainer(format!(
                    "block {l} is {}x{}, cell ({r},{c}) needs {}x{}",
                    b.nrows(),
                    b.ncols(),
                    row_dist.size(r),
                    col_dist.size(c)
                )));
            }
        }
        Ok(DistCsrMatrix { nrows, ncols, grid, row_dist, col_dist, blocks, gen: fresh_gen() })
    }

    /// The matrix's generation stamp: unique per construction (a built
    /// matrix hands out no mutable access, so a new pattern is a new
    /// matrix). Communication schedules key on it and invalidate
    /// automatically when it moves.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Global row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The locale grid.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// The row partition (over `pr`).
    pub fn row_dist(&self) -> BlockDist {
        self.row_dist
    }

    /// The column partition (over `pc`).
    pub fn col_dist(&self) -> BlockDist {
        self.col_dist
    }

    /// Locale `l`'s global row range.
    pub fn row_range(&self, l: usize) -> Range<usize> {
        let (r, _) = self.grid.coords(l);
        self.row_dist.range(r)
    }

    /// Locale `l`'s global column range (`ciLow..ciHigh+1`).
    pub fn col_range(&self, l: usize) -> Range<usize> {
        let (_, c) = self.grid.coords(l);
        self.col_dist.range(c)
    }

    /// Global stored-entry count.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nnz()).sum()
    }

    /// Locale `l`'s CSR block (local coordinates).
    pub fn block(&self, l: usize) -> &CsrMatrix<T> {
        &self.blocks[l]
    }

    /// Grid row `r`'s blocks as one matrix, narrowed to the columns in the
    /// ascending intervals `spans`; nothing is copied.
    pub fn row_panel(&self, r: usize, spans: &[(usize, usize)]) -> RowPanel<'_, T> {
        let mut panel =
            RowPanel { nrows: self.row_dist.size(r), ncols: self.ncols, runs: Vec::new() };
        for &(lo, hi) in spans.iter().filter(|(lo, hi)| lo < hi) {
            for c in self.col_dist.owner(lo)..=self.col_dist.owner(hi - 1) {
                let (blk, range) = (&self.blocks[self.grid.locale(r, c)], self.col_dist.range(c));
                let (lo, hi) = (lo.max(range.start) - range.start, hi.min(range.end) - range.start);
                let bounds = |i: usize| {
                    let (base, row) = (blk.rowptr()[i], blk.row(i).0);
                    let at = |j: usize| base + row.partition_point(|&x| x < j);
                    (at(lo), at(hi))
                };
                let narrowed = (lo, hi) != (0, blk.ncols());
                let cut = narrowed.then(|| (0..blk.nrows()).map(bounds).collect());
                panel.runs.push((blk, range.start, cut));
            }
        }
        panel
    }

    /// Grid column `c`'s blocks as one matrix; nothing is copied.
    pub fn col_panel(&self, c: usize) -> ColPanel<'_, T> {
        ColPanel {
            nrows: self.nrows,
            ncols: self.col_dist.size(c),
            starts: (0..self.grid.pr()).map(|r| self.row_dist.range(r).start).collect(),
            blocks: self.grid.col_locales(c).map(|l| &self.blocks[l]).collect(),
        }
    }

    /// Reassemble the global matrix (verification path).
    pub fn to_global(&self) -> Result<CsrMatrix<T>> {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for l in 0..self.grid.locales() {
            let row_start = self.row_range(l).start;
            let col_start = self.col_range(l).start;
            for (li, lj, &v) in self.blocks[l].iter() {
                coo.push(li + row_start, lj + col_start, v)?;
            }
        }
        coo.to_csr(DupPolicy::Error)
    }
}

/// Calls `f(c, cut)` for every column block `c` in order, where
/// `cols[cut]` are the entries of the sorted row `cols` that fall in
/// `ranges[c]` (contiguous, ascending ranges covering every column).
fn for_each_cut(cols: &[usize], ranges: &[Range<usize>], mut f: impl FnMut(usize, Range<usize>)) {
    let mut lo = 0;
    for (c, range) in ranges.iter().enumerate() {
        let hi = lo + cols[lo..].partition_point(|&j| j < range.end);
        f(c, lo..hi);
        lo = hi;
    }
}

/// One block of a [`RowPanel`]: the block, the global column of its column
/// 0, and per row its entries' position bounds in the block's arrays where
/// the panel narrows it (the block's row pointers otherwise).
type Run<'a, T> = (&'a CsrMatrix<T>, usize, Option<Vec<(usize, usize)>>);

/// A grid row of a [`DistCsrMatrix`] read in place as one matrix in global
/// column coordinates: row `i` is row `i` of each block, side by side. The
/// left operand of a SUMMA locale's multiply.
#[derive(Debug)]
pub struct RowPanel<'a, T> {
    nrows: usize,
    ncols: usize,
    runs: Vec<Run<'a, T>>,
}

impl<T> RowPanel<'_, T> {
    /// Stored entries inside the panel.
    pub fn nnz(&self) -> usize {
        let of = |(blk, _, cut): &Run<T>| match cut {
            Some(cut) => cut.iter().map(|(start, end)| end - start).sum(),
            None => blk.nnz(),
        };
        self.runs.iter().map(of).sum()
    }
}

impl<T: Copy + Sync> LeftOperand<T> for RowPanel<'_, T> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn row<'a>(&'a self, i: usize) -> impl Iterator<Item = (usize, &'a [usize], &'a [T])> + Clone
    where
        T: 'a,
    {
        self.runs.iter().map(move |(blk, offset, cut)| {
            let (start, end) = match cut {
                Some(cut) => cut[i],
                None => (blk.rowptr()[i], blk.rowptr()[i + 1]),
            };
            (*offset, &blk.colidx()[start..end], &blk.values()[start..end])
        })
    }
}

/// A grid column of a [`DistCsrMatrix`] read in place as one matrix in
/// global row coordinates: row `k` is a row of the block that holds it.
/// The right operand of a SUMMA locale's multiply.
#[derive(Debug)]
pub struct ColPanel<'a, T> {
    nrows: usize,
    ncols: usize,
    /// First global row of each block, ascending.
    starts: Vec<usize>,
    blocks: Vec<&'a CsrMatrix<T>>,
}

impl<T> ColPanel<'_, T> {
    /// Stored entries inside the panel.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|blk| blk.nnz()).sum()
    }
}

impl<T: Sync> RightOperand<T> for ColPanel<'_, T> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn row(&self, k: usize) -> (&[usize], &[T]) {
        // the last block starting at or before `k`
        let r = self.starts.partition_point(|&start| start <= k).saturating_sub(1);
        self.blocks[r].row(k - self.starts[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gblas_core::gen;

    #[test]
    fn round_trip_all_grid_shapes() {
        let a = gen::erdos_renyi(100, 5, 77);
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 2), (2, 4), (3, 3)] {
            let d = DistCsrMatrix::from_global(&a, ProcGrid::new(pr, pc));
            assert_eq!(d.nnz(), a.nnz(), "grid {pr}x{pc}");
            assert_eq!(d.to_global().unwrap(), a, "grid {pr}x{pc}");
        }
    }

    #[test]
    fn panels_read_the_global_rows_in_place() {
        // 7 rows over 3 grid rows and 4 grid columns: uneven and tiny blocks
        for (n, deg, pr, pc) in [(60usize, 4usize, 2usize, 3usize), (7, 3, 3, 4), (3, 2, 4, 4)] {
            let a = gen::erdos_renyi(n, deg, 5);
            let d = DistCsrMatrix::from_global(&a, ProcGrid::new(pr, pc));
            let spans = [(1, n / 2), (n / 2 + 1, n)];
            let inside = |j: usize| spans.iter().any(|&(lo, hi)| lo <= j && j < hi);
            for r in 0..pr {
                let (whole, cut) = (d.row_panel(r, &[(0, n)]), d.row_panel(r, &spans));
                let rows = d.row_dist().range(r);
                assert_eq!((whole.nrows, whole.ncols), (rows.len(), n));
                let entries = |panel: &RowPanel<f64>, i: usize| -> Vec<(usize, f64)> {
                    let runs = panel.row(i);
                    runs.flat_map(|(off, c, v)| {
                        c.iter().map(move |j| off + j).zip(v.iter().copied())
                    })
                    .collect()
                };
                let mut nnz = 0;
                for (i, gi) in rows.enumerate() {
                    let (gc, gv) = a.row(gi);
                    let global: Vec<_> = gc.iter().copied().zip(gv.iter().copied()).collect();
                    assert_eq!(entries(&whole, i), global, "{n} {pr}x{pc} row {gi}");
                    let kept: Vec<_> = global.into_iter().filter(|&(j, _)| inside(j)).collect();
                    nnz += kept.len();
                    assert_eq!(entries(&cut, i), kept, "{n} {pr}x{pc} row {gi} narrowed");
                }
                assert_eq!(cut.nnz(), nnz);
            }
            for c in 0..pc {
                let (panel, cols) = (d.col_panel(c), d.col_dist().range(c));
                assert_eq!((panel.nrows, panel.ncols), (n, cols.len()));
                for k in 0..n {
                    let (gc, _) = a.row(k);
                    let local: Vec<_> =
                        gc.iter().filter(|j| cols.contains(j)).map(|j| j - cols.start).collect();
                    assert_eq!(panel.row(k).0, local, "{n} {pr}x{pc} column panel {c} row {k}");
                }
            }
        }
    }

    #[test]
    fn blocks_are_local_coordinates() {
        let a = gen::erdos_renyi(60, 4, 3);
        let grid = ProcGrid::new(2, 3);
        let d = DistCsrMatrix::from_global(&a, grid);
        for l in 0..6 {
            let rows = d.row_range(l);
            let cols = d.col_range(l);
            let blk = d.block(l);
            assert_eq!(blk.nrows(), rows.len());
            assert_eq!(blk.ncols(), cols.len());
            for (li, lj, &v) in blk.iter() {
                assert_eq!(a.get(li + rows.start, lj + cols.start), Some(&v));
            }
        }
    }

    #[test]
    fn row_union_across_grid_row_matches_global() {
        let a = gen::erdos_renyi(50, 6, 13);
        let grid = ProcGrid::new(2, 2);
        let d = DistCsrMatrix::from_global(&a, grid);
        for gid in 0..50 {
            let r = d.row_dist().owner(gid);
            let mut cols = Vec::new();
            for l in grid.row_locales(r) {
                let local_row = gid - d.row_range(l).start;
                let (bc, _) = d.block(l).row(local_row);
                let off = d.col_range(l).start;
                cols.extend(bc.iter().map(|&j| j + off));
            }
            cols.sort_unstable();
            let (gc, _) = a.row(gid);
            assert_eq!(cols, gc, "row {gid}");
        }
    }

    #[test]
    fn uneven_dimensions_distribute() {
        let a = gen::erdos_renyi(97, 3, 5);
        let d = DistCsrMatrix::from_global(&a, ProcGrid::new(3, 4));
        assert_eq!(d.to_global().unwrap(), a);
    }

    #[test]
    fn generation_moves_on_construction_not_equality() {
        let a = gen::erdos_renyi(80, 4, 9);
        let grid = ProcGrid::new(2, 2);
        let d1 = DistCsrMatrix::from_global(&a, grid);
        let d2 = DistCsrMatrix::from_global(&a, grid);
        // distinct constructions: distinct stamps, but equal content
        assert_ne!(d1.generation(), d2.generation());
        assert_eq!(d1, d2);
        // clone keeps the stamp (same data, schedules stay valid)
        let c = d1.clone();
        assert_eq!(c.generation(), d1.generation());
    }
}
