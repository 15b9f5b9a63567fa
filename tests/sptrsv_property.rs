//! Property test for the compiled SpTRSV kernel's Deterministic-tier
//! contract (DESIGN §17): `solve_serial` must actually solve `L x = b`
//! (checked through the residual) and must be **bitwise identical** to a
//! textbook forward substitution written out here — rows ascending, each
//! row's entries accumulated left to right with one scalar chain.
//!
//! Runs 64 seeded random lower-triangular patterns (sizes 4..100,
//! densities 5%..40%); each failure message carries the seed, so any
//! counterexample reproduces exactly.

use acamar::sparse::rng::DetRng;
use acamar::sparse::{CompiledSptrsv, CooMatrix, CsrMatrix};

/// Number of random lower-triangular patterns to try.
const CASES: u64 = 64;

/// Random sparse lower-triangular matrix with a well-conditioned
/// diagonal; size and density are drawn from the seed.
fn random_lower(rng: &mut DetRng) -> CsrMatrix<f64> {
    let n = rng.gen_range(4..100usize);
    let density = 0.05 + rng.gen_f64() * 0.35;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..i {
            if rng.gen_bool(density) {
                coo.push(i, j, rng.gen_f64() * 2.0 - 1.0).unwrap();
            }
        }
        coo.push(i, i, 2.0 + rng.gen_f64()).unwrap();
    }
    coo.to_csr()
}

/// Forward substitution straight from the definition, independent of
/// the compiled plan: `x[i] = (b[i] - sum_{j<i} l_ij x[j]) / l_ii`, with
/// the sum taken in CSR entry order.
fn textbook_forward(l: &CsrMatrix<f64>, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; l.nrows()];
    for i in 0..l.nrows() {
        let (cols, vals) = l.row(i);
        let mut acc = b[i];
        let mut diag = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if c == i {
                diag = v;
            } else {
                acc -= v * x[c];
            }
        }
        x[i] = acc / diag;
    }
    x
}

#[test]
fn sptrsv_is_bitwise_identical_to_textbook_substitution() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5197_0000 + seed);
        let l = random_lower(&mut rng);
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 4.0 - 2.0).collect();

        let plan = CompiledSptrsv::compile_lower(&l)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
        let mut x = vec![0.0; n];
        plan.solve_serial(&l, &b, &mut x)
            .unwrap_or_else(|e| panic!("seed {seed}: serial solve failed: {e}"));

        // The solve must actually satisfy L x = b...
        let mut back = vec![0.0; n];
        l.mul_vec_into(&x, &mut back).unwrap();
        for (i, (bi, ri)) in b.iter().zip(&back).enumerate() {
            assert!(
                (bi - ri).abs() < 1e-9 * (1.0 + bi.abs()),
                "seed {seed}: residual at row {i}: {bi} vs {ri}"
            );
        }

        // ...and reproduce the textbook substitution bit for bit.
        let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = textbook_forward(&l, &b)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits,
            want,
            "seed {seed}: solve_serial diverged from textbook substitution \
             (n={n}, levels={})",
            plan.level_count()
        );
    }
}
