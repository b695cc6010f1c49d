//! Matrix Market I/O.
//!
//! The de-facto interchange format for sparse matrices (and the format
//! every GraphBLAS implementation's test suites read). Supported subset:
//! `matrix coordinate real|integer|pattern general|symmetric`. Pattern
//! files read as value `1.0`; symmetric files are expanded to both
//! triangles on read.

use crate::container::{CooMatrix, CsrMatrix, DupPolicy};
use crate::error::{GblasError, Result};
use std::io::{BufRead, Write};

/// Value field of the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

/// Symmetry of the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

fn parse_error(msg: impl Into<String>) -> GblasError {
    GblasError::InvalidArgument(format!("matrix market: {}", msg.into()))
}

/// Read a Matrix Market `coordinate` matrix from a reader.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CsrMatrix<f64>> {
    let mut lines = reader.lines();
    // Header line.
    let header = lines
        .next()
        .ok_or_else(|| parse_error("empty input"))?
        .map_err(|e| parse_error(e.to_string()))?;
    let h: Vec<String> = header.split_whitespace().map(|s| s.to_ascii_lowercase()).collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(parse_error(format!("bad header line: {header}")));
    }
    if h[2] != "coordinate" {
        return Err(parse_error(format!("unsupported format '{}' (only coordinate)", h[2])));
    }
    let field = match h[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_error(format!("unsupported field '{other}'"))),
    };
    let symmetry = match h[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(parse_error(format!("unsupported symmetry '{other}'"))),
    };
    // Size line (first non-comment line).
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| parse_error(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_error("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| parse_error(format!("bad size token '{t}'"))))
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(parse_error(format!("size line needs 3 numbers, got '{size_line}'")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    // Entries. The header is outside input: a size it cannot back is an
    // error, not an aborting allocation.
    let mut coo = CooMatrix::new(nrows, ncols);
    let pushes = if symmetry == Symmetry::Symmetric { nnz.checked_mul(2) } else { Some(nnz) };
    coo.try_reserve(pushes.ok_or_else(|| parse_error(format!("{nnz} entries overflow")))?)?;
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(|e| parse_error(e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = t.split_whitespace().collect();
        let need = if field == Field::Pattern { 2 } else { 3 };
        if toks.len() < need {
            return Err(parse_error(format!("bad entry line '{t}'")));
        }
        let i: usize =
            toks[0].parse().map_err(|_| parse_error(format!("bad row '{}'", toks[0])))?;
        let j: usize =
            toks[1].parse().map_err(|_| parse_error(format!("bad col '{}'", toks[1])))?;
        if i == 0 || j == 0 {
            return Err(parse_error("matrix market indices are 1-based"));
        }
        let v: f64 = if field == Field::Pattern {
            1.0
        } else {
            toks[2].parse().map_err(|_| parse_error(format!("bad value '{}'", toks[2])))?
        };
        coo.push(i - 1, j - 1, v)?;
        if symmetry == Symmetry::Symmetric && i != j {
            coo.push(j - 1, i - 1, v)?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_error(format!("size line promised {nnz} entries, found {seen}")));
    }
    coo.to_csr_with(DupPolicy::Sum, |a, b| a + b)
}

/// Read a Matrix Market file from disk.
pub fn read_matrix_market_file(path: &std::path::Path) -> Result<CsrMatrix<f64>> {
    let file = std::fs::File::open(path)
        .map_err(|e| parse_error(format!("open {}: {e}", path.display())))?;
    read_matrix_market(std::io::BufReader::new(file))
}

/// Write a matrix in `coordinate real general` form.
pub fn write_matrix_market<W: Write>(mut w: W, a: &CsrMatrix<f64>) -> Result<()> {
    let io_err = |e: std::io::Error| parse_error(format!("write: {e}"));
    writeln!(w, "%%MatrixMarket matrix coordinate real general").map_err(io_err)?;
    writeln!(w, "% written by chapel-graphblas-rs").map_err(io_err)?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz()).map_err(io_err)?;
    for (i, j, v) in a.iter() {
        writeln!(w, "{} {} {}", i + 1, j + 1, v).map_err(io_err)?;
    }
    Ok(())
}

/// Write a matrix to a file on disk.
pub fn write_matrix_market_file(path: &std::path::Path, a: &CsrMatrix<f64>) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| parse_error(format!("create {}: {e}", path.display())))?;
    write_matrix_market(std::io::BufWriter::new(file), a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip() {
        let a = gen::erdos_renyi(40, 4, 301);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.nnz(), b.nnz());
        for (i, j, &v) in a.iter() {
            assert!((b.get(i, j).unwrap() - v).abs() < 1e-12);
        }
    }

    #[test]
    fn reads_pattern_and_comments() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % a comment\n\
                    \n\
                    3 3 2\n\
                    1 2\n\
                    3 1\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 1), Some(&1.0));
        assert_eq!(a.get(2, 0), Some(&1.0));
    }

    #[test]
    fn reads_symmetric_expanding_both_triangles() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 3 7.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3); // (1,0), (0,1), (2,2)
        assert_eq!(a.get(1, 0), Some(&5.0));
        assert_eq!(a.get(0, 1), Some(&5.0));
        assert_eq!(a.get(2, 2), Some(&7.0));
    }

    #[test]
    fn reads_integer_field() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    2 2 1\n\
                    1 1 42\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), Some(&42.0));
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 2\n\
                    1 1 1.5\n\
                    1 1 2.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), Some(&4.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_matrix_market("".as_bytes()).is_err());
        assert!(read_matrix_market("%%MatrixMarket tensor\n".as_bytes()).is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix array real general\n2 2\n".as_bytes())
            .is_err());
        // wrong count
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n".as_bytes()
        )
        .is_err());
        // zero-based index
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n".as_bytes()
        )
        .is_err());
        // out of range
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n".as_bytes()
        )
        .is_err());
    }

    /// A header is not trusted for allocation: each of these sizes once
    /// aborted or panicked the process before a single entry was read.
    #[test]
    fn headers_are_not_trusted_for_allocation() {
        let cases = [
            ("general", "3 3 99999999999999999"),
            ("symmetric", "3 3 18446744073709551615"),
            ("general", "18446744073709551615 3 0"),
            ("general", "99999999999999 3 0"),
        ];
        for (symmetry, size) in cases {
            let text = format!("%%MatrixMarket matrix coordinate real {symmetry}\n{size}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(matches!(err, GblasError::InvalidArgument(_)), "{size}: {err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let a = gen::erdos_renyi(20, 3, 302);
        let dir = std::env::temp_dir().join("gblas_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        write_matrix_market_file(&path, &a).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        assert_eq!(a.nnz(), b.nnz());
    }
}
