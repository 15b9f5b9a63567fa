//! The untraced run: set-up timing, the measured window, and the output
//! checks behind the end-to-end metrics.

use crate::check::{relative_residual, Digest};
use crate::closed_loop::{closed_loop, DEPTH};
use crate::host::{peak_rss_mb, steal_s};
use crate::inputs::{Inputs, Request, Workload};
use crate::stats::{median, percentile, sorted, tail_percentile};
use acamar_core::{Acamar, AcamarConfig, AcamarRunReport};
use acamar_engine::{Engine, Sequence, SequenceConfig, SequenceJob};
use acamar_fabric::FabricSpec;
use acamar_service::{
    AdmissionError, RoutingPolicy, Service, ServiceConfig, ServiceRequest, Ticket,
};
use acamar_sparse::{CsrMatrix, DeterminismPolicy};
use acamar_telemetry::RingRecorder;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Plan-cache entries each cold-intake shard may hold. Far below the
/// pool's share per shard, so every request misses and evicts.
pub const COLD_CACHE_CAPACITY: usize = 8;
/// Length of one slice of the window, seconds. The client thread reads
/// the host's CPU steal at every slice boundary.
pub const SLICE_S: f64 = 0.1;
/// Share of the window the end-to-end metrics are read from at least:
/// the slices in which the hypervisor stole the least CPU time. Runs
/// that lost 10–15 s of CPU time to steal in 35 s still lost 0.5–1 s in
/// their quietest sixth, and their p99 rose by up to half; when the
/// chosen slices were steal-free, such runs read like calm ones.
pub const QUIET_SHARE: f64 = 0.1;
/// Requests the quiet slices must hold at least, so that p99 has 10
/// samples beyond it; a slower workload reads more slices.
pub const MIN_QUIET_SAMPLES: usize = 1000;
/// What `failed_frac` reads when nothing failed: below the share of one
/// failure in any window the benchmark can run.
pub const FAILED_FLOOR: f64 = 1e-6;
/// Leading requests whose Deterministic-tier solutions form the
/// `table2_warm` solution digest.
pub const DIGEST_REQUESTS: usize = 200;

/// The residual a solution must meet: the solvers' own tolerance.
pub fn tolerance() -> f64 {
    AcamarConfig::paper().criteria.tolerance
}

/// The accelerator every workload runs on.
pub fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

/// Determinism tier of the workload's solves.
pub fn policy(workload: Workload) -> DeterminismPolicy {
    match workload {
        Workload::PoissonSequence => DeterminismPolicy::Fast,
        _ => DeterminismPolicy::Deterministic,
    }
}

/// The sequence configuration of `poisson_sequence`: Fast tier, warm
/// starts on, default patch thresholds.
pub fn sequence_config() -> SequenceConfig {
    SequenceConfig::default()
        .with_policy(policy(Workload::PoissonSequence))
        .with_warm_start(true)
}

/// The service request for stream entry `req`.
pub fn service_request(inputs: &Inputs, req: Request) -> ServiceRequest<f64> {
    let a = Arc::clone(&inputs.matrices[req.matrix]);
    ServiceRequest::new(a, inputs.rhs[req.rhs].clone()).with_policy(policy(inputs.workload))
}

/// Waits for an admitted request; a refusal or service error becomes the
/// error text.
pub fn resolve(
    ticket: Result<Ticket<f64>, AdmissionError>,
) -> Result<AcamarRunReport<f64>, String> {
    ticket
        .map_err(|e| e.to_string())
        .and_then(|t| t.wait().map_err(|e| e.to_string()))
}

/// What the program's answer to one request amounts to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Converged, and the recomputed residual is within tolerance.
    Solved {
        /// Recomputed relative residual.
        residual: f64,
    },
    /// Errored, was refused or shed, or did not converge.
    Failed,
    /// Claimed convergence but the recomputed residual exceeds tolerance:
    /// a wrong answer, counted as failed and as incorrect output.
    Wrong {
        /// Recomputed relative residual.
        residual: f64,
    },
}

impl Verdict {
    /// Whether the request counts as failed.
    pub fn failed(self) -> bool {
        !matches!(self, Verdict::Solved { .. })
    }
}

/// Judges one resolved request against its system.
pub fn judge<E>(
    a: &CsrMatrix<f64>,
    b: &[f64],
    result: Result<&AcamarRunReport<f64>, E>,
) -> Verdict {
    match result {
        Ok(report) if report.converged() => {
            let residual = relative_residual(a, &report.solve.solution, b);
            if residual <= tolerance() {
                Verdict::Solved { residual }
            } else {
                Verdict::Wrong { residual }
            }
        }
        _ => Verdict::Failed,
    }
}

/// Stands up the two-shard affinity service of the service workloads
/// and solves `inputs.warmup` through it. `ring` installs a recorder.
///
/// # Errors
///
/// A warm-up system that fails to solve.
pub fn stand_up(inputs: &Inputs, ring: Option<Arc<RingRecorder>>) -> Result<Service<f64>, String> {
    let cfg = ServiceConfig::default()
        .with_shards(2)
        .with_workers_per_shard(1)
        .with_routing(RoutingPolicy::Affinity);
    let service = match ring {
        Some(r) => Service::with_recorder(acamar(), cfg, r),
        None => Service::new(acamar(), cfg),
    };
    if inputs.workload == Workload::ColdIntake {
        for s in 0..service.shards() {
            service.engine(s).cache().set_capacity(COLD_CACHE_CAPACITY);
        }
    }
    let tickets = inputs
        .warmup
        .iter()
        .map(|(a, b)| {
            service
                .submit(ServiceRequest::new(Arc::clone(a), b.clone()))
                .map_err(|e| format!("warm-up refused: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for ((a, b), t) in inputs.warmup.iter().zip(tickets) {
        let report = t.wait().map_err(|e| format!("warm-up failed: {e}"))?;
        if judge(a, b, Ok::<_, ()>(&report)).failed() {
            return Err("a warm-up system did not solve".to_string());
        }
    }
    Ok(service)
}

/// One resolved request of the window.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Client latency, ms.
    latency_ms: f64,
    /// Whether it was solved.
    solved: bool,
}

/// A slice of the window and the CPU time the hypervisor stole in it.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Start, seconds into the window.
    pub start: f64,
    /// End, seconds into the window.
    pub end: f64,
    /// CPU seconds stolen, summed over the host's CPUs.
    pub steal_s: f64,
    /// The requests that resolved in it, as indices in resolution order.
    pub samples: Range<usize>,
}

impl Slice {
    fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Reads the host's CPU steal at slice boundaries. The client thread
/// calls [`StealLog::tick`] after each resolved request, so no thread is
/// added; a boundary is marked at the first resolution after it.
#[derive(Debug)]
struct StealLog {
    /// (seconds into the window, steal so far, requests resolved so far).
    marks: Vec<(f64, f64, usize)>,
}

impl StealLog {
    fn start() -> Self {
        StealLog {
            marks: vec![(0.0, steal_s().unwrap_or(0.0), 0)],
        }
    }

    /// Marks a boundary if a slice has passed since the last one; `at`
    /// is when the `resolved`-th request resolved.
    fn tick(&mut self, at: f64, resolved: usize) {
        let last = self.marks.last().map_or(0.0, |m| m.0);
        if at - last >= SLICE_S {
            self.marks.push((at, steal_s().unwrap_or(0.0), resolved));
        }
    }

    fn finish(mut self, at: f64, resolved: usize) -> Vec<Slice> {
        self.marks.push((at, steal_s().unwrap_or(0.0), resolved));
        self.marks
            .windows(2)
            .map(|w| Slice {
                start: w[0].0,
                end: w[1].0,
                steal_s: w[1].1 - w[0].1,
                samples: w[0].2..w[1].2,
            })
            .collect()
    }
}

/// The slices, least steal per second first, that together cover at
/// least `share` of the window and hold at least `min_samples` requests,
/// or all of them. Equals go in bit-reversed slice order, so that slices
/// chosen among equals spread over the whole window rather than crowd
/// its start: on a steal-free run the metrics still average over the
/// slower swings in host speed that steal does not show.
pub fn quietest(slices: &[Slice], share: f64, min_samples: usize) -> Vec<Slice> {
    let total: f64 = slices.iter().map(Slice::seconds).sum();
    let rate = |k: usize| slices[k].steal_s / slices[k].seconds().max(f64::MIN_POSITIVE);
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| {
        rate(a)
            .total_cmp(&rate(b))
            .then((a as u32).reverse_bits().cmp(&(b as u32).reverse_bits()))
    });
    let (mut covered, mut held) = (0.0, 0);
    order
        .into_iter()
        .map(|k| &slices[k])
        .take_while(|s| {
            let take = covered < share * total || held < min_samples;
            covered += s.seconds();
            held += s.samples.len();
            take
        })
        .cloned()
        .collect()
}

/// The measured window's tallies.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests resolved (attempted).
    pub attempted: u64,
    /// Of those, failed (including wrong answers).
    pub failed: u64,
    /// Of those, wrong answers.
    pub wrong: u64,
    /// Every resolved request, in resolution order.
    samples: Vec<Sample>,
    /// Largest recomputed residual of a converged request.
    pub max_residual: f64,
    /// Solution digests of the leading [`DIGEST_REQUESTS`] requests, by
    /// stream position.
    digests: Vec<Option<u64>>,
}

impl Tally {
    fn add(&mut self, index: u64, latency: Duration, verdict: Verdict, solution: Option<&[f64]>) {
        self.attempted += 1;
        self.samples.push(Sample {
            latency_ms: latency.as_secs_f64() * 1e3,
            solved: !verdict.failed(),
        });
        match verdict {
            Verdict::Solved { residual } => self.max_residual = self.max_residual.max(residual),
            Verdict::Wrong { residual } => {
                self.max_residual = self.max_residual.max(residual);
                self.failed += 1;
                self.wrong += 1;
            }
            Verdict::Failed => self.failed += 1,
        }
        if let (true, Some(x)) = ((index as usize) < DIGEST_REQUESTS, solution) {
            if self.digests.len() < DIGEST_REQUESTS {
                self.digests.resize(DIGEST_REQUESTS, None);
            }
            let mut d = Digest::default();
            d.f64s(x);
            self.digests[index as usize] = Some(d.finish());
        }
    }

    /// Digest of the leading solutions in stream order, and how many it
    /// covers (fewer than [`DIGEST_REQUESTS`] only if the window was
    /// shorter or some failed).
    pub fn solution_digest(&self) -> (u64, usize) {
        let mut d = Digest::default();
        let mut covered = 0;
        for part in self.digests.iter().map_while(|p| *p) {
            d.u64(part);
            covered += 1;
        }
        (d.finish(), covered)
    }
}

/// End-to-end results of one untraced run.
#[derive(Debug)]
pub struct Measured {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Every set-up time, seconds.
    pub setups: Vec<f64>,
    /// Window length including the drain of outstanding requests.
    pub window_s: f64,
    /// The window's slices, in time order.
    pub slices: Vec<Slice>,
    /// Its quietest slices, which the end-to-end metrics are read from.
    pub quiet: Vec<Slice>,
    /// Peak resident memory through the window, MiB.
    pub peak_rss_mb: f64,
    /// Window tallies.
    pub tally: Tally,
}

impl Measured {
    /// Requests that resolved in the quiet slices.
    fn quiet_samples(&self) -> impl Iterator<Item = &Sample> {
        self.quiet
            .iter()
            .flat_map(|q| &self.tally.samples[q.samples.clone()])
    }

    /// Seconds the quiet slices cover.
    pub fn quiet_s(&self) -> f64 {
        self.quiet.iter().map(Slice::seconds).sum()
    }

    /// Requests that resolved in the quiet slices.
    pub fn quiet_count(&self) -> usize {
        self.quiet_samples().count()
    }

    /// CPU seconds stolen in the whole window and in its quiet slices.
    pub fn steal_s(&self) -> (f64, f64) {
        let sum = |s: &[Slice]| s.iter().map(|s| s.steal_s).sum();
        (sum(&self.slices), sum(&self.quiet))
    }

    /// Successful solves per second over the quiet slices.
    pub fn solves_per_s(&self) -> f64 {
        let solved = self.quiet_samples().filter(|s| s.solved).count();
        solved as f64 / self.quiet_s()
    }

    /// Nearest-rank percentile `p` of the client latency of the requests
    /// that resolved in the quiet slices, ms.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let latencies = self.quiet_samples().map(|s| s.latency_ms).collect();
        percentile(&sorted(latencies), p)
    }

    /// Nearest-rank percentile `p` of the client latency over the whole
    /// window, ms.
    pub fn window_latency_ms(&self, p: f64) -> f64 {
        let latencies = self.tally.samples.iter().map(|s| s.latency_ms).collect();
        percentile(&sorted(latencies), p)
    }

    /// The highest percentile with at least ten quiet samples beyond it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.quiet_count()).map(|p| (p, self.latency_ms(p)))
    }
}

/// Times the remaining `SETUP_REPS - 1` set-ups after the window; each
/// `setup` call returns its own set-up time and tears down what it built.
/// Running them after the peak-memory reading keeps their allocator churn
/// out of `peak_rss_mb`.
fn more_setups(
    first: Duration,
    mut setup: impl FnMut() -> Result<Duration, String>,
) -> Result<Vec<f64>, String> {
    let mut times = vec![first.as_secs_f64()];
    for _ in 1..SETUP_REPS {
        times.push(setup()?.as_secs_f64());
    }
    Ok(times)
}

/// Runs `inputs`' workload untraced for `seconds`.
///
/// # Errors
///
/// Set-up failures.
pub fn measure(inputs: &Inputs, seconds: f64) -> Result<Measured, String> {
    match inputs.workload {
        Workload::PoissonSequence => measure_sequence(inputs, seconds),
        _ => measure_service(inputs, seconds),
    }
}

fn measure_service(inputs: &Inputs, seconds: f64) -> Result<Measured, String> {
    let t = Instant::now();
    let service = stand_up(inputs, None)?;
    let first = t.elapsed();
    let mut tally = Tally::default();
    let mut stream = inputs.stream();
    let mut submitted = 0u64;
    let mut steal = StealLog::start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    closed_loop(
        DEPTH,
        || {
            // At least one request, however short the window.
            (submitted == 0 || Instant::now() < deadline).then(|| {
                submitted += 1;
                let req = stream.next().expect("streams are infinite");
                (req, service_request(inputs, req))
            })
        },
        |_, payload| service.submit(payload),
        resolve,
        |done| {
            let at = start.elapsed().as_secs_f64();
            let req = done.request;
            let (a, b) = (&inputs.matrices[req.matrix], &inputs.rhs[req.rhs]);
            let verdict = judge(a, b, done.result.as_ref());
            let solution = done
                .result
                .as_ref()
                .ok()
                .map(|r| r.solve.solution.as_slice());
            tally.add(req.index, done.latency, verdict, solution);
            steal.tick(at, tally.samples.len());
        },
    );
    let window_s = start.elapsed().as_secs_f64();
    let slices = steal.finish(window_s, tally.samples.len());
    let peak_rss_mb = peak_rss_mb().ok_or("peak resident memory is unavailable")?;
    drop(service);
    let setups = more_setups(first, || {
        let t = Instant::now();
        let service = stand_up(inputs, None)?;
        let dt = t.elapsed();
        drop(service);
        Ok(dt)
    })?;
    Ok(Measured {
        setup_s: median(&setups),
        setups,
        window_s,
        quiet: quietest(&slices, QUIET_SHARE, MIN_QUIET_SAMPLES),
        slices,
        peak_rss_mb,
        tally,
    })
}

/// Opens the Poisson sequence on `engine` at the stream's first matrix.
pub fn open<'e>(engine: &'e Engine, inputs: &Inputs) -> Result<Sequence<'e, f64>, String> {
    let first = inputs.stream().next().expect("streams are infinite");
    engine
        .open_sequence(
            Arc::clone(&inputs.matrices[first.matrix]),
            sequence_config(),
        )
        .map_err(|e| format!("open_sequence failed: {e}"))
}

fn measure_sequence(inputs: &Inputs, seconds: f64) -> Result<Measured, String> {
    let setup = || {
        let t = Instant::now();
        let engine = Engine::with_workers(acamar(), 1);
        let seq = open(&engine, inputs)?;
        let dt = t.elapsed();
        drop(seq);
        Ok(dt)
    };
    let t = Instant::now();
    let engine = Engine::with_workers(acamar(), 1);
    let mut seq = open(&engine, inputs)?;
    let first = t.elapsed();

    let mut tally = Tally::default();
    let mut steal = StealLog::start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for req in inputs.stream() {
        if req.index > 0 && Instant::now() >= deadline {
            break;
        }
        let (a, b) = (&inputs.matrices[req.matrix], &inputs.rhs[req.rhs]);
        let job = SequenceJob::new(Arc::clone(a), b.clone());
        let t = Instant::now();
        let result = seq.step(job);
        let latency = t.elapsed();
        let at = start.elapsed().as_secs_f64();
        let report = result.as_ref().map(|s| &s.report);
        let verdict = judge(a, b, report);
        tally.add(req.index, latency, verdict, None);
        steal.tick(at, tally.samples.len());
    }
    let window_s = start.elapsed().as_secs_f64();
    let slices = steal.finish(window_s, tally.samples.len());
    let peak_rss_mb = peak_rss_mb().ok_or("peak resident memory is unavailable")?;
    drop(seq);
    drop(engine);
    let setups = more_setups(first, setup)?;
    Ok(Measured {
        setup_s: median(&setups),
        setups,
        window_s,
        quiet: quietest(&slices, QUIET_SHARE, MIN_QUIET_SAMPLES),
        slices,
        peak_rss_mb,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_solvers::ConvergenceCriteria;
    use acamar_sparse::generate;

    #[test]
    fn non_converging_request_counts_as_failed() {
        let a = generate::poisson2d::<f64>(20, 20);
        let b = vec![1.0; a.nrows()];
        let starved = Acamar::new(
            FabricSpec::alveo_u55c(),
            AcamarConfig::paper()
                .with_criteria(ConvergenceCriteria::paper().with_max_iterations(2)),
        );
        let report = starved.run(&a, &b).unwrap();
        assert!(!report.converged());
        assert_eq!(judge(&a, &b, Ok::<_, ()>(&report)), Verdict::Failed);

        let solved = acamar().run(&a, &b).unwrap();
        assert!(matches!(
            judge(&a, &b, Ok::<_, ()>(&solved)),
            Verdict::Solved { .. }
        ));
        assert_eq!(
            judge(&a, &b, Err::<&AcamarRunReport<f64>, _>("shed")),
            Verdict::Failed
        );

        // A converged claim with a wrong solution is caught by the
        // benchmark's own residual.
        let mut lying = solved;
        lying.solve.solution[0] += 1.0;
        assert!(matches!(
            judge(&a, &b, Ok::<_, ()>(&lying)),
            Verdict::Wrong { .. }
        ));

        let mut tally = Tally::default();
        let ms = Duration::from_millis(1);
        tally.add(0, ms, Verdict::Failed, None);
        tally.add(1, ms, Verdict::Wrong { residual: 1.0 }, None);
        tally.add(2, ms, Verdict::Solved { residual: 0.0 }, None);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (3, 2, 1));
    }

    #[test]
    fn quietest_slices_cover_the_share_and_the_samples() {
        // Four 1 s slices of 10 requests each; steal 0.3, 0.0, 0.2, 0.0 s.
        let slices: Vec<Slice> = [0.3, 0.0, 0.2, 0.0]
            .iter()
            .enumerate()
            .map(|(k, &steal_s)| Slice {
                start: k as f64,
                end: k as f64 + 1.0,
                steal_s,
                samples: 10 * k..10 * (k + 1),
            })
            .collect();
        let starts = |q: Vec<Slice>| q.iter().map(|s| s.start).collect::<Vec<_>>();
        // Half the window: the two steal-free slices.
        assert_eq!(starts(quietest(&slices, 0.5, 0)), [1.0, 3.0]);
        // 25 requests need a third slice, the next quietest.
        assert_eq!(starts(quietest(&slices, 0.5, 25)), [1.0, 3.0, 2.0]);
        // More than the window holds: every slice.
        assert_eq!(quietest(&slices, 0.1, 1000).len(), 4);

        // Among equals, a quarter of eight slices is the first and the
        // fifth, and half of them every other one.
        let even: Vec<Slice> = (0..8)
            .map(|k| Slice {
                start: k as f64,
                end: k as f64 + 1.0,
                steal_s: 0.0,
                samples: k..k + 1,
            })
            .collect();
        assert_eq!(starts(quietest(&even, 0.25, 0)), [0.0, 4.0]);
        assert_eq!(starts(quietest(&even, 0.5, 0)), [0.0, 4.0, 2.0, 6.0]);
    }
}
