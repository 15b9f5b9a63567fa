//! Output checks that use none of the program's kernels: a plain CSR
//! residual and an FNV-1a digest for bitwise comparisons across runs.

use acamar_sparse::CsrMatrix;

/// `‖b − A·x‖₂ / ‖b‖₂` (absolute `‖b − A·x‖₂` when `b = 0`), computed
/// with a row-ascending CSR walk written here, not with the program's
/// SpMV. A shape mismatch or non-finite value yields `f64::INFINITY`, so
/// it can never pass a tolerance check.
pub fn relative_residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != a.ncols() || b.len() != a.nrows() {
        return f64::INFINITY;
    }
    let (row_ptr, cols, vals) = (a.row_ptr(), a.col_idx(), a.values());
    let mut r2 = 0.0f64;
    let mut b2 = 0.0f64;
    for i in 0..a.nrows() {
        let mut ax = 0.0f64;
        for k in row_ptr[i]..row_ptr[i + 1] {
            ax += vals[k] * x[cols[k]];
        }
        let r = b[i] - ax;
        r2 += r * r;
        b2 += b[i] * b[i];
    }
    let rel = if b2 > 0.0 {
        (r2 / b2).sqrt()
    } else {
        r2.sqrt()
    };
    if rel.is_finite() {
        rel
    } else {
        f64::INFINITY
    }
}

/// Streaming 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds the exact bit patterns of `values`.
    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.u64(v.to_bits());
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate;

    #[test]
    fn residual_of_exact_and_perturbed_solutions() {
        let a = generate::poisson2d::<f64>(6, 6);
        let x: Vec<f64> = (0..36).map(|i| 1.0 + i as f64 * 0.1).collect();
        let b = a.mul_vec(&x).unwrap();
        assert!(relative_residual(&a, &x, &b) < 1e-14);
        let mut off = x.clone();
        off[3] += 1.0;
        assert!(relative_residual(&a, &off, &b) > 1e-3);
        assert_eq!(relative_residual(&a, &x[..35], &b), f64::INFINITY);
        let mut nan = x;
        nan[0] = f64::NAN;
        assert_eq!(relative_residual(&a, &nan, &b), f64::INFINITY);
    }

    #[test]
    fn digest_separates_bit_patterns() {
        let mut a = Digest::default();
        a.f64s(&[0.0]);
        let mut b = Digest::default();
        b.f64s(&[-0.0]);
        assert_ne!(a.finish(), b.finish());
    }
}
