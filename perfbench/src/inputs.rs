//! Seeded workload inputs. Everything here runs before set-up and before
//! the timed window; the program only ever receives the matrices and
//! right-hand sides built here.

use crate::check::Digest;
use acamar_sparse::generate::{self, RowDistribution};
use acamar_sparse::rng::DetRng;
use acamar_sparse::CsrMatrix;
use std::collections::HashSet;
use std::sync::Arc;

/// Right-hand sides pre-generated per Table II pattern.
const TABLE2_RHS_PER_PATTERN: usize = 8;
/// Distinct patterns in the cold-intake pool.
pub const COLD_POOL: usize = 256;
/// Row range of cold-intake patterns.
const COLD_ROWS: std::ops::RangeInclusive<usize> = 500..=4000;
/// Cold-intake warm-up patterns per structural class. They are larger
/// than any pool pattern, so set-up time is dominated by analysis and
/// solving rather than thread start-up jitter, and never shares a pattern
/// with the pool.
const COLD_WARMUP_PER_CLASS: usize = 2;
/// Grid side of the Poisson sequence (32³ rows, ~223k stored entries).
pub const POISSON_SIDE: usize = 32;
/// Distinct matrices the Poisson sequence cycles through; phase `p`
/// drops the `p`-th seeded off-diagonal pair of the base operator.
const POISSON_PHASES: usize = 8;
/// Steps between pattern changes of the Poisson sequence.
pub const POISSON_STEPS_PER_PHASE: usize = 16;
/// Right-hand sides in the Poisson ring; the forcing is periodic in it.
const POISSON_RHS_RING: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 25 Table II analogs, every request a plan-cache hit.
    Table2Warm,
    /// Patterns the service has no plan for, from four structural classes.
    ColdIntake,
    /// An evolving 3D Poisson sequence on one engine.
    PoissonSequence,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table2Warm,
        Workload::ColdIntake,
        Workload::PoissonSequence,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Warm => "table2_warm",
            Workload::ColdIntake => "cold_intake",
            Workload::PoissonSequence => "poisson_sequence",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One request of a workload's stream: indices into [`Inputs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the stream (also the trace request id).
    pub index: u64,
    /// Index into [`Inputs::matrices`].
    pub matrix: usize,
    /// Index into [`Inputs::rhs`].
    pub rhs: usize,
}

/// How a workload's stream walks its inputs.
#[derive(Debug, Clone)]
enum Order {
    /// Rounds that each visit every pattern once in a fresh seeded order,
    /// with one of that pattern's pre-generated right-hand sides, so the
    /// pattern mix is exactly uniform whatever the seed.
    Rounds { seed: u64 },
    /// A fixed seeded cyclic order over the pool, one right-hand side per
    /// pattern.
    Cyclic(Vec<usize>),
    /// Step `k` solves phase `(k / POISSON_STEPS_PER_PHASE) % phases`
    /// against right-hand side `k % ring`.
    Phased,
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// Coefficient matrices.
    pub matrices: Vec<Arc<CsrMatrix<f64>>>,
    /// Right-hand sides.
    pub rhs: Vec<Vec<f64>>,
    /// Systems solved during set-up, never in the stream (Table II: the
    /// 25 patterns themselves; cold intake: two patterns per class just
    /// above the pool's sizes).
    pub warmup: Vec<(Arc<CsrMatrix<f64>>, Vec<f64>)>,
    order: Order,
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Table2Warm => table2(seed),
            Workload::ColdIntake => cold(seed),
            Workload::PoissonSequence => poisson(seed),
        }
    }

    /// The request stream from its start.
    pub fn stream(&self) -> Stream<'_> {
        let rng = match self.order {
            Order::Rounds { seed } => DetRng::seed_from_u64(seed),
            _ => DetRng::seed_from_u64(0),
        };
        Stream {
            inputs: self,
            next: 0,
            rng,
            round: Vec::new(),
        }
    }

    /// Digest of the first `n` requests: each request's position, its
    /// matrix (shape, pattern and values) and its right-hand side.
    pub fn stream_digest(&self, n: usize) -> u64 {
        let matrix_digests: Vec<u64> = self.matrices.iter().map(|a| matrix_digest(a)).collect();
        let mut d = Digest::default();
        for req in self.stream().take(n) {
            d.u64(req.index);
            d.u64(matrix_digests[req.matrix]);
            d.f64s(&self.rhs[req.rhs]);
        }
        d.finish()
    }
}

/// The infinite request stream of one workload.
#[derive(Debug)]
pub struct Stream<'a> {
    inputs: &'a Inputs,
    next: u64,
    rng: DetRng,
    /// The current round's pattern order ([`Order::Rounds`]).
    round: Vec<usize>,
}

impl Iterator for Stream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let index = self.next;
        self.next += 1;
        let k = index as usize;
        let (matrix, rhs) = match &self.inputs.order {
            Order::Rounds { .. } => {
                if self.round.is_empty() {
                    self.round = shuffled(self.inputs.matrices.len(), &mut self.rng);
                }
                let m = self.round.pop().expect("refilled above");
                let j = self.rng.gen_range(0..TABLE2_RHS_PER_PATTERN);
                (m, m * TABLE2_RHS_PER_PATTERN + j)
            }
            Order::Cyclic(order) => {
                let m = order[k % order.len()];
                (m, m)
            }
            Order::Phased => (
                (k / POISSON_STEPS_PER_PHASE) % self.inputs.matrices.len(),
                k % self.inputs.rhs.len(),
            ),
        };
        Some(Request { index, matrix, rhs })
    }
}

/// `0..n` in a seeded random order (Fisher-Yates).
fn shuffled(n: usize, rng: &mut DetRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Digest of a matrix's shape, pattern and values.
fn matrix_digest(a: &CsrMatrix<f64>) -> u64 {
    let mut d = pattern_digest(a);
    d.f64s(a.values());
    d.finish()
}

fn pattern_digest(a: &CsrMatrix<f64>) -> Digest {
    let mut d = Digest::default();
    d.u64(a.nrows() as u64);
    d.u64(a.ncols() as u64);
    for &p in a.row_ptr() {
        d.u64(p as u64);
    }
    for &c in a.col_idx() {
        d.u64(c as u64);
    }
    d
}

/// `n` values uniform in `[1, 1.5)`.
fn positive_rhs(rng: &mut DetRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| 1.0 + 0.5 * rng.gen_f64()).collect()
}

fn table2(seed: u64) -> Inputs {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x7ab1_e200);
    let suite = acamar_datasets::suite();
    let matrices: Vec<Arc<CsrMatrix<f64>>> =
        suite.iter().map(|d| Arc::new(d.matrix_f64())).collect();
    let rhs: Vec<Vec<f64>> = matrices
        .iter()
        .flat_map(|a| {
            (0..TABLE2_RHS_PER_PATTERN)
                .map(|_| positive_rhs(&mut rng, a.nrows()))
                .collect::<Vec<_>>()
        })
        .collect();
    let warmup = matrices
        .iter()
        .map(|a| (Arc::clone(a), vec![1.0; a.nrows()]))
        .collect();
    Inputs {
        workload: Workload::Table2Warm,
        matrices,
        rhs,
        warmup,
        order: Order::Rounds {
            seed: rng.next_u64(),
        },
    }
}

/// Structural classes of the cold-intake pool (see [`cold_matrix`]).
const COLD_CLASSES: usize = 4;

/// One cold-intake matrix of class `class`.
fn cold_matrix(class: usize, n: usize, seed: u64) -> CsrMatrix<f64> {
    match class {
        // Strictly diagonally dominant, bimodal rows: the structure unit
        // picks Jacobi.
        0 => generate::diagonally_dominant(
            n,
            RowDistribution::Bimodal {
                low: 3,
                high: 24,
                high_fraction: 0.05,
            },
            1.5,
            seed,
        ),
        // SPD but not dominant: CG (Jacobi would diverge).
        1 => generate::jacobi_divergent_spd(n, 0.7, 3, 0.01, seed),
        // Nonsymmetric, not dominant: BiCG-STAB.
        2 => generate::nonsymmetric_perturbation(
            &generate::jacobi_divergent_spd(n, 0.7, 3, 0.01, seed),
            0.3,
            seed ^ 0x5eed,
        ),
        // Symmetric indefinite, not dominant: the structure unit picks CG,
        // CG breaks down, and the Solver Modifier switches to BiCG-STAB.
        _ => generate::spread_spectrum_blocks(n, 0.55, 1.5, true, seed),
    }
}

/// A cold-intake system of `class` at `n` rows whose pattern is not in
/// `seen`. The indefinite class's pattern depends only on its size, so a
/// repeated pattern moves on to the next size rather than a new seed.
fn distinct_system(
    class: usize,
    mut n: usize,
    rng: &mut DetRng,
    seen: &mut HashSet<u64>,
) -> (Arc<CsrMatrix<f64>>, Vec<f64>) {
    loop {
        let a = cold_matrix(class, n, rng.next_u64());
        if seen.insert(pattern_digest(&a).finish()) {
            let b = positive_rhs(rng, a.nrows());
            return (Arc::new(a), b);
        }
        n += 1;
    }
}

fn cold(seed: u64) -> Inputs {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xc01d_0000);
    let mut seen = HashSet::new();
    let warmup: Vec<(Arc<CsrMatrix<f64>>, Vec<f64>)> = (0..COLD_CLASSES * COLD_WARMUP_PER_CLASS)
        .map(|k| {
            let n = COLD_ROWS.end() + 1 + k;
            distinct_system(k % COLD_CLASSES, n, &mut rng, &mut seen)
        })
        .collect();

    // The same number of patterns per class, with row counts stratified
    // over the range, so the pool's cost barely depends on the seed.
    let per_class = COLD_POOL / COLD_CLASSES;
    let (lo, hi) = (*COLD_ROWS.start(), *COLD_ROWS.end());
    let stride = (hi - lo) as f64 / per_class as f64;
    let mut matrices = Vec::with_capacity(COLD_POOL);
    let mut rhs = Vec::with_capacity(COLD_POOL);
    for class in 0..COLD_CLASSES {
        for j in 0..per_class {
            let n = lo + ((j as f64 + rng.gen_f64()) * stride) as usize;
            let (a, b) = distinct_system(class, n, &mut rng, &mut seen);
            matrices.push(a);
            rhs.push(b);
        }
    }
    let order = shuffled(COLD_POOL, &mut rng);
    Inputs {
        workload: Workload::ColdIntake,
        matrices,
        rhs,
        warmup,
        order: Order::Cyclic(order),
    }
}

/// `a` without the symmetric off-diagonal pair `(i, j)`, `(j, i)`.
fn drop_pair(a: &CsrMatrix<f64>, i: usize, j: usize) -> CsrMatrix<f64> {
    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    let mut cols = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    row_ptr.push(0);
    for r in 0..a.nrows() {
        let (rc, rv) = a.row(r);
        for (&c, &v) in rc.iter().zip(rv) {
            if (r, c) != (i, j) && (r, c) != (j, i) {
                cols.push(c);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, cols, vals)
        .expect("removing entries keeps a valid CSR matrix")
}

fn poisson(seed: u64) -> Inputs {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x9015_5000);
    let side = POISSON_SIDE;
    let base = generate::poisson3d::<f64>(side, side, side);
    let n = base.nrows();
    // Dropping an off-diagonal pair keeps the operator symmetric and
    // weakly diagonally dominant, hence SPD: CG stays the right solver and
    // every phase change is a 4-row pattern delta the sequence can patch.
    let mut matrices = Vec::with_capacity(POISSON_PHASES);
    let mut used = HashSet::new();
    while matrices.len() < POISSON_PHASES {
        let i = rng.gen_range(0..n);
        let (cols, _) = base.row(i);
        let j = cols[rng.gen_range(0..cols.len())];
        if j != i && used.insert((i.min(j), i.max(j))) {
            matrices.push(Arc::new(drop_pair(&base, i, j)));
        }
    }
    // A smooth forcing scaled by a slow periodic factor with a seeded
    // phase: consecutive steps differ a little, so warm starts pay off.
    let tau = std::f64::consts::TAU;
    let wave = |i: usize, d: usize| {
        let x = (i / side.pow(d as u32)) % side;
        (std::f64::consts::PI * (x as f64 + 0.5) / side as f64).sin()
    };
    let field: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * wave(i, 0) * wave(i, 1) * wave(i, 2))
        .collect();
    let phase = rng.gen_f64() * tau;
    let rhs = (0..POISSON_RHS_RING)
        .map(|k| {
            let t = tau * k as f64 / POISSON_RHS_RING as f64 + phase;
            let s = 1.0 + 0.0005 * t.sin();
            field.iter().map(|f| f * s).collect()
        })
        .collect();
    Inputs {
        workload: Workload::PoissonSequence,
        matrices,
        rhs,
        warmup: Vec::new(),
        order: Order::Phased,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_digest() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7).stream_digest(300);
            let b = Inputs::generate(w, 7).stream_digest(300);
            let c = Inputs::generate(w, 8).stream_digest(300);
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn cold_pool_patterns_are_distinct() {
        let inputs = Inputs::generate(Workload::ColdIntake, 3);
        let mut digests: HashSet<u64> = inputs
            .matrices
            .iter()
            .map(|a| pattern_digest(a).finish())
            .collect();
        assert_eq!(digests.len(), COLD_POOL);
        for (a, _) in &inputs.warmup {
            assert!(digests.insert(pattern_digest(a).finish()));
        }
        for a in &inputs.matrices {
            assert!(COLD_ROWS.contains(&a.nrows()));
        }
    }

    #[test]
    fn poisson_phases_differ_by_one_pair() {
        let inputs = Inputs::generate(Workload::PoissonSequence, 1);
        let full = POISSON_SIDE.pow(3);
        let base_nnz = generate::poisson3d::<f64>(POISSON_SIDE, POISSON_SIDE, POISSON_SIDE).nnz();
        for a in &inputs.matrices {
            assert_eq!(a.nrows(), full);
            assert_eq!(a.nnz(), base_nnz - 2);
            assert!(a.is_symmetric(0.0));
        }
        let steps: Vec<Request> = inputs.stream().take(2 * POISSON_STEPS_PER_PHASE).collect();
        assert_eq!(steps[0].matrix, 0);
        assert_eq!(steps[POISSON_STEPS_PER_PHASE].matrix, 1);
    }
}
