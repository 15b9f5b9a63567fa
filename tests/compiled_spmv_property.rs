//! Property test for the compiled SpMV execution plans: the serial
//! compiled walk must be **bitwise identical** to the generic CSR walk.
//!
//! Compilation reorders storage and interleaves work across rows, never
//! the summation order within a row, so every band kernel reproduces
//! `CsrMatrix::mul_vec` exactly. This suite pins that claim across 64
//! seeded random patterns drawn from every `RowDistribution` family,
//! with plans compiled both from the default hint and from the MSID
//! schedule the fine-grained reconfiguration unit actually produces.

use acamar::core::{Acamar, AcamarConfig};
use acamar::fabric::FabricSpec;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::CompiledSpmv;

/// Seeded random patterns per distribution family.
const CASES_PER_FAMILY: u64 = 16;

fn families(case: u64) -> RowDistribution {
    match case % 4 {
        0 => RowDistribution::Constant(3 + (case % 5) as usize),
        1 => RowDistribution::Uniform {
            min: 1,
            max: 9 + (case % 8) as usize,
        },
        2 => RowDistribution::Bimodal {
            low: 2,
            high: 24 + (case % 16) as usize,
            high_fraction: 0.1,
        },
        _ => RowDistribution::PowerLaw {
            min: 1,
            max: 60,
            exponent: 1.8,
        },
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: row {i} differs ({g:?} vs {w:?})"
        );
    }
}

#[test]
fn compiled_spmv_is_bitwise_identical_to_generic_walk() {
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
    let total = CASES_PER_FAMILY * 4;
    for case in 0..total {
        let seed = 0xC0DE_0000 + case;
        let n = 48 + (case as usize * 29) % 320;
        let a = generate::random_pattern::<f64>(n, families(case), seed);
        let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();

        // The compiled walk must reproduce the generic CSR walk exactly.
        let expected = a.mul_vec(&x).unwrap();
        let schedule_plan = acamar.analyze(&a).compiled;
        let default_plan = CompiledSpmv::compile_default(&a);
        for (plan, tag) in [(&*schedule_plan, "schedule"), (&default_plan, "default")] {
            let mut y = vec![0.0_f64; n];
            plan.execute(&a, &x, &mut y).unwrap();
            assert_bits_eq(&y, &expected, &format!("case {case} {tag}"));
        }
    }
}
