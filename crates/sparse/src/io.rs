//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's datasets come from the SuiteSparse collection, which is
//! distributed in Matrix Market format. This reader/writer supports the
//! `matrix coordinate` container with `real`/`integer`/`pattern` fields and
//! `general`/`symmetric`/`skew-symmetric` storage, which covers every
//! matrix in the paper's Table II.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::IoError;
use crate::scalar::Scalar;
use std::io::{BufRead, BufReader, Read, Write};

/// Symmetry qualifier of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; `(i, j)` implies `(j, i)`.
    Symmetric,
    /// Lower triangle stored; `(i, j)` implies `-(j, i)`.
    SkewSymmetric,
}

/// Reads a Matrix Market coordinate file into CSR form.
///
/// Symmetric and skew-symmetric storage is expanded to general storage.
/// `pattern` files produce matrices of ones.
///
/// # Errors
///
/// Returns [`IoError`] on malformed headers, non-numeric or non-finite
/// data (a value that overflows `T` counts as non-finite), index
/// overflow, a size line no buffer could hold, a non-square `symmetric`
/// or `skew-symmetric` matrix, or unsupported features (`complex` field,
/// `array` container).
///
/// # Examples
///
/// ```
/// use acamar_sparse::io::read_matrix_market;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n2 2 4.0\n";
/// let a = read_matrix_market::<f64, _>(text.as_bytes())?;
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.get(1, 1), 4.0);
/// # Ok::<(), acamar_sparse::IoError>(())
/// ```
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<CsrMatrix<T>, IoError> {
    let mut lines = BufReader::new(reader).lines();
    let mut line_no = 0usize;

    // Header line.
    let header = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(IoError::Parse {
                    line: line_no,
                    message: "empty file".into(),
                })
            }
        }
    };
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("bad header: {header:?}"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(IoError::Unsupported(format!("container {:?}", toks[2])));
    }
    let pattern = match toks[3].as_str() {
        "real" | "integer" | "double" => false,
        "pattern" => true,
        other => return Err(IoError::Unsupported(format!("field {other:?}"))),
    };
    let symmetry = match toks[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(IoError::Unsupported(format!("symmetry {other:?}"))),
    };

    // Size line (skipping comments).
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => {
                return Err(IoError::Parse {
                    line: line_no,
                    message: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| IoError::Parse {
            line: line_no,
            message: format!("bad size line: {e}"),
        })?;
    if dims.len() != 3 {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("size line needs 3 fields, got {}", dims.len()),
        });
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if symmetry != MmSymmetry::General && nrows != ncols {
        return Err(parse_err(
            line_no,
            &format!("{symmetry:?} storage needs a square matrix, got {nrows}x{ncols}"),
        ));
    }
    // `row_ptr` (and a transpose's `col_ptr`) needs `dim + 1` words and
    // the staging buffer below `2 * nnz` triplets; a `Vec` may span at
    // most `isize::MAX` bytes, so larger sizes cannot describe a matrix.
    let fits = |count: Option<usize>, elem: usize| {
        count
            .and_then(|n| n.checked_mul(elem))
            .is_some_and(|bytes| bytes <= isize::MAX as usize)
    };
    let word = std::mem::size_of::<usize>();
    if !fits(nrows.checked_add(1), word)
        || !fits(ncols.checked_add(1), word)
        || !fits(nnz.checked_mul(2), std::mem::size_of::<(usize, usize, T)>())
    {
        return Err(parse_err(
            line_no,
            &format!("size line {nrows} {ncols} {nnz} overflows the address space"),
        ));
    }

    let mut coo = CooMatrix::<T>::with_capacity(nrows, ncols, nnz * 2);
    let mut seen = 0usize;
    for l in lines {
        line_no += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err(line_no, "missing row index"))?
            .parse()
            .map_err(|e| parse_err(line_no, &format!("bad row index: {e}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err(line_no, "missing column index"))?
            .parse()
            .map_err(|e| parse_err(line_no, &format!("bad column index: {e}")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err(line_no, "missing value"))?
                .parse()
                .map_err(|e| parse_err(line_no, &format!("bad value: {e}")))?
        };
        if i == 0 || j == 0 {
            return Err(parse_err(line_no, "matrix market indices are 1-based"));
        }
        let value = T::from_f64(v);
        if !value.to_f64().is_finite() {
            return Err(parse_err(line_no, &format!("value {v} is not finite")));
        }
        let (r, c) = (i - 1, j - 1);
        coo.push(r, c, value)?;
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric => {
                if r != c {
                    coo.push(c, r, value)?;
                }
            }
            MmSymmetry::SkewSymmetric => {
                if r != c {
                    coo.push(c, r, T::from_f64(-v))?;
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("expected {nnz} entries, found {seen}"),
        });
    }
    Ok(coo.to_csr())
}

fn parse_err(line: usize, message: &str) -> IoError {
    IoError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Writes a CSR matrix as `matrix coordinate real general`.
///
/// # Errors
///
/// Propagates any I/O error from `writer`.
///
/// # Examples
///
/// ```
/// use acamar_sparse::io::{read_matrix_market, write_matrix_market};
/// use acamar_sparse::CsrMatrix;
///
/// let a = CsrMatrix::<f64>::identity(3);
/// let mut buf = Vec::new();
/// write_matrix_market(&a, &mut buf)?;
/// let b = read_matrix_market::<f64, _>(buf.as_slice())?;
/// assert_eq!(a, b);
/// # Ok::<(), acamar_sparse::IoError>(())
/// ```
pub fn write_matrix_market<T: Scalar, W: Write>(
    a: &CsrMatrix<T>,
    mut writer: W,
) -> Result<(), IoError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by acamar-sparse")?;
    writeln!(writer, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, cols, vals) in a.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            writeln!(writer, "{} {} {:e}", i + 1, c + 1, v.to_f64())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 2 1.5\n\
                    3 3 -2.0\n";
        let a = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.get(0, 1), 1.5);
        assert_eq!(a.get(2, 2), -2.0);
    }

    #[test]
    fn expands_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 1.0\n";
        let a = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn expands_skew_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let a = read_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(a.get(1, 0), 3.0);
        assert_eq!(a.get(0, 1), -3.0);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 1\n\
                    2 2\n";
        let a = read_matrix_market::<f32, _>(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(matches!(
            read_matrix_market::<f64, _>("garbage\n".as_bytes()),
            Err(IoError::Parse { .. })
        ));
        assert!(matches!(
            read_matrix_market::<f64, _>(
                "%%MatrixMarket matrix array real general\n2 2\n".as_bytes()
            ),
            Err(IoError::Unsupported(_))
        ));
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market::<f64, _>(short.as_bytes()),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(matches!(
            read_matrix_market::<f64, _>(text.as_bytes()),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_non_square_symmetric_headers() {
        for symmetry in ["symmetric", "skew-symmetric"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real {symmetry}\n2 3 1\n2 1 1.0\n");
            assert!(
                matches!(
                    read_matrix_market::<f64, _>(text.as_bytes()),
                    Err(IoError::Parse { line: 2, .. })
                ),
                "{symmetry}"
            );
        }
    }

    #[test]
    fn rejects_non_finite_values() {
        for value in ["nan", "inf", "-inf", "NaN"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {value}\n");
            assert!(
                matches!(
                    read_matrix_market::<f64, _>(text.as_bytes()),
                    Err(IoError::Parse { line: 3, .. })
                ),
                "{value}"
            );
        }
        // Finite in the file but beyond f32's range: inf after conversion.
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e300\n";
        assert!(matches!(
            read_matrix_market::<f32, _>(text.as_bytes()),
            Err(IoError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn rejects_size_lines_that_overflow() {
        let max = usize::MAX;
        for size in [
            format!("{max} 1 0"),
            format!("1 {max} 0"),
            format!("1 1 {max}"),
            format!("{} 1 0", max / 2),
        ] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            assert!(
                matches!(
                    read_matrix_market::<f64, _>(text.as_bytes()),
                    Err(IoError::Parse { line: 2, .. })
                ),
                "{size}"
            );
        }
    }

    #[test]
    fn write_read_round_trip() {
        let a =
            CsrMatrix::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.25, -0.5, 1e-9])
                .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market::<f64, _>(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }
}
