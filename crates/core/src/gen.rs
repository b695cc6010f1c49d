//! Seeded workload generators matching §II-A of the paper.
//!
//! "For simplicity, we only experimented with randomly generated matrices
//! and vectors. Randomly generated matrices give us precise control over
//! the nonzero distribution." All generators are deterministic in their
//! seed so every figure is reproducible bit-for-bit.

use crate::container::{CsrMatrix, DenseVec, SparseVec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sample `k` distinct sorted indices from `0..n` (selection sampling,
/// Knuth's Algorithm S): exact count, already sorted, O(n).
pub fn sample_distinct_sorted(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
    let mut out = Vec::with_capacity(k);
    let mut remaining = k;
    for i in 0..n {
        if remaining == 0 {
            break;
        }
        // Probability remaining/(n - i) of selecting index i.
        if (rng.gen_range(0..n - i)) < remaining {
            out.push(i);
            remaining -= 1;
        }
    }
    debug_assert_eq!(out.len(), k);
    out
}

/// An Erdős–Rényi-style sparse matrix `G(n, d/n)`: `n × n`, with `d`
/// nonzeros *in expectation* per row, uniformly placed. Per the paper's
/// model, each row draws `d` column ids uniformly at random; duplicates are
/// merged, so rows carry `≈ d` (at most `d`) entries. Values are uniform
/// in `[0, 1)`.
pub fn erdos_renyi(n: usize, d: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rowptr = Vec::with_capacity(n + 1);
    rowptr.push(0usize);
    let mut colidx: Vec<usize> = Vec::with_capacity(n * d);
    let mut values: Vec<f64> = Vec::with_capacity(n * d);
    let mut row: Vec<usize> = Vec::with_capacity(d);
    for _ in 0..n {
        row.clear();
        for _ in 0..d {
            row.push(rng.gen_range(0..n));
        }
        row.sort_unstable();
        row.dedup();
        for &c in &row {
            colidx.push(c);
            values.push(rng.gen::<f64>());
        }
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_raw_parts(n, n, rowptr, colidx, values)
        .expect("generator output satisfies CSR invariants")
}

/// A symmetric Erdős–Rényi matrix (undirected graph): the union of the
/// directed pattern and its transpose, diagonal removed. Used by the
/// triangle-counting example.
pub fn erdos_renyi_symmetric(n: usize, d: usize, seed: u64) -> CsrMatrix<f64> {
    let a = erdos_renyi(n, d, seed);
    let mut coo = crate::container::CooMatrix::new(n, n);
    for (r, c, &v) in a.iter() {
        if r != c {
            coo.push(r, c, v).unwrap();
            coo.push(c, r, v).unwrap();
        }
    }
    coo.to_csr_with(crate::container::DupPolicy::KeepLast, |a, _| a)
        .expect("symmetrized structure is valid")
}

/// A random sparse vector: `nnz` distinct positions out of `capacity`,
/// values uniform in `[0, 1)`. `f = nnz/capacity` is the paper's vector
/// density.
pub fn random_sparse_vec(capacity: usize, nnz: usize, seed: u64) -> SparseVec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let indices = sample_distinct_sorted(capacity, nnz, &mut rng);
    let values = (0..nnz).map(|_| rng.gen::<f64>()).collect();
    SparseVec::from_sorted(capacity, indices, values).expect("sampled indices are sorted/distinct")
}

/// An R-MAT (recursive matrix) power-law graph: `2^scale` vertices,
/// `edge_factor · 2^scale` edges placed by recursive quadrant descent with
/// the Graph500 probabilities `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`.
/// Duplicate edges are collapsed (summing weights), so the final nnz is
/// slightly below the nominal edge count — as in real Graph500 inputs.
///
/// ER matrices give "precise control over the nonzero distribution"
/// (§II-A) and are what the paper evaluates; R-MAT adds the skewed-degree
/// workloads a production library must also handle (used by the extra
/// examples and stress tests).
///
/// # Panics
///
/// When [`rmat_edges`] is `None`: the nominal edge count does not fit
/// `usize`.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrMatrix<f64> {
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let Some(edges) = rmat_edges(scale, edge_factor) else {
        panic!("rmat: 2^{scale} * {edge_factor} edges do not fit usize");
    };
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = crate::container::CooMatrix::new(n, n);
    coo.reserve(edges);
    for _ in 0..edges {
        let (mut r, mut c) = (0usize, 0usize);
        for level in (0..scale).rev() {
            // Quadrants a, b, c, d are [0, A), [A, A+B), [A+B, A+B+C) and
            // the rest, picked with comparisons and no branch: the draw is
            // random, so a branch would mispredict on most levels.
            let p: f64 = rng.gen();
            let dr = p >= A + B;
            let dc = (A..A + B).contains(&p) | (p >= A + B + C);
            r |= (dr as usize) << level;
            c |= (dc as usize) << level;
        }
        coo.push(r, c, rng.gen::<f64>()).expect("rmat indices in range");
    }
    coo.to_csr_with(crate::container::DupPolicy::Sum, |a, b| a + b)
        .expect("rmat structure is valid")
}

/// The nominal edge count `2^scale · edge_factor` of an [`rmat`] graph,
/// `None` when it does not fit `usize` — what a caller holding outside
/// input checks before generating.
pub fn rmat_edges(scale: u32, edge_factor: usize) -> Option<usize> {
    1usize.checked_shl(scale)?.checked_mul(edge_factor)
}

/// A dense boolean vector with each entry independently `true` with
/// probability `frac_true` — the `y` operand of the paper's eWiseMult
/// experiments ("we initialize y in a way that half the entries in x are
/// kept", §III-C, i.e. `frac_true = 0.5`).
pub fn random_dense_bool(len: usize, frac_true: f64, seed: u64) -> DenseVec<bool> {
    let mut rng = SmallRng::seed_from_u64(seed);
    DenseVec::from_fn(len, |_| rng.gen::<f64>() < frac_true)
}

/// An Erdős–Rényi pattern matrix with boolean values (adjacency only), a
/// fixture of this crate's unit tests.
#[cfg(test)]
pub(crate) fn erdos_renyi_bool(n: usize, d: usize, seed: u64) -> CsrMatrix<bool> {
    let a = erdos_renyi(n, d, seed);
    a.with_values(vec![true; a.nnz()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_distinct_exact_sorted() {
        let mut rng = SmallRng::seed_from_u64(1);
        for (n, k) in [(10, 0), (10, 10), (100, 7), (1000, 500)] {
            let s = sample_distinct_sorted(n, k, &mut rng);
            assert_eq!(s.len(), k);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn erdos_renyi_shape_and_density() {
        let n = 2000;
        let d = 8;
        let a = erdos_renyi(n, d, 99);
        assert_eq!(a.nrows(), n);
        assert_eq!(a.ncols(), n);
        let avg = a.nnz() as f64 / n as f64;
        assert!((avg - d as f64).abs() < 0.5, "expected ≈{d} nnz/row, got {avg}");
        // values in range
        assert!(a.values().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn erdos_renyi_deterministic_in_seed() {
        let a = erdos_renyi(500, 4, 7);
        let b = erdos_renyi(500, 4, 7);
        let c = erdos_renyi(500, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a.colidx(), c.colidx());
    }

    #[test]
    fn symmetric_generator_is_symmetric() {
        let a = erdos_renyi_symmetric(300, 5, 3);
        for (r, c, _) in a.iter() {
            assert_ne!(r, c, "diagonal must be removed");
            assert!(a.get(c, r).is_some(), "missing mirror of ({r},{c})");
        }
    }

    #[test]
    fn random_sparse_vec_density() {
        let v = random_sparse_vec(10_000, 200, 5);
        assert_eq!(v.nnz(), 200);
        assert_eq!(v.capacity(), 10_000);
        assert!((v.density() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn rmat_shape_and_skew() {
        let a = rmat(10, 8, 77); // 1024 vertices, ~8192 edges
        assert_eq!(a.nrows(), 1024);
        assert!(a.nnz() > 6000 && a.nnz() <= 8192, "nnz = {}", a.nnz());
        // power-law skew: the max out-degree far exceeds the mean
        let max_deg = (0..1024).map(|i| a.row_nnz(i)).max().unwrap();
        let mean = a.nnz() as f64 / 1024.0;
        assert!(max_deg as f64 > 4.0 * mean, "expected skew: max {max_deg} vs mean {mean:.1}");
        // deterministic
        assert_eq!(a, rmat(10, 8, 77));
        assert_ne!(a.nnz(), rmat(10, 8, 78).nnz());
    }

    #[test]
    fn random_dense_bool_fraction() {
        let v = random_dense_bool(100_000, 0.5, 11);
        let trues = v.as_slice().iter().filter(|&&b| b).count();
        assert!((trues as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }
}
