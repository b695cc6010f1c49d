//! Pinned digests of the seeded workload generators.
//!
//! Every constant below was recorded on the commit *before* the matrix
//! build became a counting sort and the R-MAT descent went branch-free
//! (the build was then a stable comparison sort of `(row, col, value)`
//! triplets, and the descent a three-way `if` chain over a `dyn RngCore`
//! draw). A digest folds `rowptr`, `colidx` and the value bits, so "every
//! generated graph is bit-identical" is checked against recorded history,
//! not against whatever the current code computes twice. Do not
//! regenerate these: a changed digest is a changed input to every figure.

use gblas_core::container::CsrMatrix;
use gblas_core::gen;

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn csr_digest(a: &CsrMatrix<f64>) -> u64 {
    let shape = [a.nrows() as u64, a.ncols() as u64];
    let rowptr = a.rowptr().iter().map(|&p| p as u64);
    let colidx = a.colidx().iter().map(|&c| c as u64);
    let values = a.values().iter().map(|v| v.to_bits());
    fnv(shape.into_iter().chain(rowptr).chain(colidx).chain(values))
}

/// Collects every mismatch before failing, so one run shows them all.
#[derive(Default)]
struct Mismatches(Vec<String>);

impl Mismatches {
    fn check(&mut self, got: u64, want: u64, what: &str) {
        if got != want {
            self.0.push(format!("{what}: got {got:#018x}, pinned {want:#018x}"));
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "digests moved:\n{}", self.0.join("\n"));
    }
}

#[test]
fn rmat_is_pinned() {
    let mut bad = Mismatches::default();
    bad.check(csr_digest(&gen::rmat(8, 8, 5)), 0xc998_f072_f011_eacf, "rmat(8, 8, 5)");
    bad.check(
        csr_digest(&gen::rmat(12, 16, 20170529)),
        0xec88_872e_3377_3c39,
        "rmat(12, 16, 20170529)",
    );
    bad.check(csr_digest(&gen::rmat(14, 8, 1)), 0x8e83_e5ef_68e2_5139, "rmat(14, 8, 1)");
    bad.finish();
}

#[test]
fn erdos_renyi_is_pinned() {
    let mut bad = Mismatches::default();
    bad.check(
        csr_digest(&gen::erdos_renyi(2000, 8, 99)),
        0xed11_7780_4de9_2e67,
        "erdos_renyi(2000, 8, 99)",
    );
    bad.check(
        csr_digest(&gen::erdos_renyi(4000, 6, 20170529)),
        0x400d_4172_f7df_3c60,
        "erdos_renyi(4000, 6, 20170529)",
    );
    let sym = gen::erdos_renyi_symmetric(1000, 6, 3);
    bad.check(csr_digest(&sym), 0x86e7_8fb0_9c92_01df, "erdos_renyi_symmetric(1000, 6, 3)");
    let sym = gen::erdos_renyi_symmetric(300, 5, 19);
    bad.check(csr_digest(&sym), 0xeb64_87e3_4acf_7dbc, "erdos_renyi_symmetric(300, 5, 19)");
    bad.finish();
}

#[test]
fn vectors_are_pinned() {
    let mut bad = Mismatches::default();
    let x = gen::random_sparse_vec(10_000, 500, 11);
    let words = x.indices().iter().map(|&i| i as u64).chain(x.values().iter().map(|v| v.to_bits()));
    bad.check(fnv(words), 0x450d_e649_e4be_7ec3, "random_sparse_vec(10000, 500, 11)");
    let y = gen::random_dense_bool(5000, 0.5, 13);
    bad.check(
        fnv(y.as_slice().iter().map(|&b| b as u64)),
        0x1054_8d58_9e22_e824,
        "random_dense_bool(5000, 0.5, 13)",
    );
    bad.finish();
}
