//! The traced run: the per-layer metrics, by layer peeling.
//!
//! A fixed prefix of the workload's seeded stream is replayed in passes
//! until the run's time is up (at least [`MIN_PASSES`]). Each pass:
//!
//! 1. replays the prefix through the front door (service, or sequence)
//!    twice, once untraced and once with a recorder installed and spans
//!    around `submit`/`wait` (or `step`), alternating which goes first;
//! 2. replays the same requests on this thread one layer down at a time:
//!    `Engine::solve_one`, then `Acamar::analyze` with its public parts
//!    and `Acamar::run_with_plan`, then the bare solver on
//!    `SoftwareKernels` with the compiled plan, then `CompiledSpmv` at the
//!    call counts the bare solver's `OpCounts` report.
//!
//! A layer's self time is its time minus the next inner layer's time on
//! the same requests. Times are medians over passes; the exact counts
//! must repeat identically in every replay of every pass.

use crate::check::Digest;
use crate::closed_loop::{closed_loop, DEPTH};
use crate::host::{copy_gbps, Host};
use crate::inputs::{Inputs, Request, Workload};
use crate::json::Obj;
use crate::run::{
    self, acamar, judge, policy, resolve, service_request, stand_up, COLD_CACHE_CAPACITY,
};
use crate::stats::median;
use acamar_core::{
    Acamar, AcamarRunReport, AnalysisArtifacts, FineGrainedReconfigUnit, MatrixStructureUnit,
    RunOptions,
};
use acamar_engine::{Engine, EngineCounters, PatternFingerprint, SequenceJob, WarmStart};
use acamar_service::Service;
use acamar_solvers::{solve_with, Kernels, SoftwareKernels, SolverKind};
use acamar_sparse::{CompiledSpmv, CompiledSptrsv, CsrMatrix, DeterminismPolicy};
use acamar_telemetry::{Counter, RingRecorder};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes always run, however short the window.
const MIN_PASSES: usize = 2;
/// Passes never exceeded.
const MAX_PASSES: usize = 25;
/// Events the traced replay's recorder keeps (only its counters are read).
const RING_EVENTS: usize = 1 << 12;
/// Timed copies per copy-bandwidth probe.
const COPY_REPS: usize = 7;

/// Requests per pass: enough for stable medians, few enough for several
/// passes per run.
fn prefix(workload: Workload) -> usize {
    match workload {
        Workload::Table2Warm | Workload::ColdIntake => 200,
        // Four phases: three band patches after the open.
        Workload::PoissonSequence => 64,
    }
}

/// One recorded span. Spans of one request share `req`; nesting follows
/// the layer order in the module docs.
#[derive(Debug, Clone, Copy)]
struct Span {
    pass: usize,
    req: u64,
    layer: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    pass: usize,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(&mut self, req: u64, layer: &'static str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            pass: self.pass,
            req,
            layer,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn time<R>(&mut self, req: u64, layer: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        self.record(req, layer, start, dur);
        (r, dur)
    }

    /// Writes the spans as JSON lines to `path`.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{}",
                Obj::new()
                    .int("pass", s.pass as u64)
                    .int("req", s.req)
                    .str("layer", s.layer)
                    .int("start_ns", s.start_ns)
                    .int("dur_ns", s.dur_ns)
                    .finish()
            )?;
        }
        out.flush()
    }
}

/// The exact counts of one replay of the prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Ledger {
    requests: u64,
    failed: u64,
    iterations: u64,
    spmv_calls: u64,
    flops: u64,
    solver_switches: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    patches: u64,
    warm_starts: u64,
    cycles: u64,
    reconfig_events: u64,
    useful_flops: u64,
    capacity_flops: f64,
}

impl Ledger {
    fn add_report(&mut self, r: &AcamarRunReport<f64>) {
        self.iterations += r.attempts.iter().map(|a| a.iterations as u64).sum::<u64>();
        self.spmv_calls += r.solve.counts.spmv_calls;
        self.flops += r.solve.counts.total_flops();
        self.solver_switches += r.solver_switches() as u64;
        self.cycles += r.stats.cycles.total();
        self.reconfig_events += r.stats.spmv_reconfig_events as u64;
        self.useful_flops += r.stats.useful_flops;
        self.capacity_flops += r.stats.capacity_flops;
    }

    fn ru(&self) -> f64 {
        if self.capacity_flops == 0.0 {
            0.0
        } else {
            1.0 - self.useful_flops as f64 / self.capacity_flops
        }
    }

    fn json(&self) -> Obj {
        Obj::new()
            .int("requests", self.requests)
            .int("failed", self.failed)
            .int("iterations", self.iterations)
            .int("spmv_calls", self.spmv_calls)
            .int("flops", self.flops)
            .int("solver_switches", self.solver_switches)
            .int("cache_hits", self.cache_hits)
            .int("cache_misses", self.cache_misses)
            .int("cache_evictions", self.cache_evictions)
            .int("patches", self.patches)
            .int("warm_starts", self.warm_starts)
            .int("modeled_cycles", self.cycles)
            .int("reconfig_events", self.reconfig_events)
            .num("ru", self.ru())
    }

    /// Digest of every count (via the JSON form, which prints each
    /// number exactly).
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bytes(self.json().finish().as_bytes());
        d.finish()
    }
}

/// What one front-door replay of the prefix observed.
#[derive(Debug, Default)]
struct Replay {
    ledger: Ledger,
    wrong: u64,
    wall: Duration,
    /// Client latency per request, ms.
    latency_ms: Vec<f64>,
    /// Time inside `submit`, µs (service workloads).
    submit_us: Vec<f64>,
    queue_wait_ns: u64,
    shard_jobs: Vec<u64>,
    cache_hit_rate: f64,
    analysis_ms_per_miss: f64,
    attempts_per_job: f64,
    /// Sequence statistics (Poisson).
    seq_plan_us: f64,
    seq_patch_us: f64,
    seq_warm_start_rate: f64,
    /// Per step (Poisson): the plan the step ran with and whether it
    /// was seeded from the previous solution.
    steps: Vec<(Arc<AnalysisArtifacts>, bool)>,
}

impl Replay {
    /// Folds the engines' counter changes over the replay into the ledger
    /// and the cache and attempt rates.
    fn add_engine_deltas(&mut self, before: &[EngineCounters], after: &[EngineCounters]) {
        let (mut analysis_ns, mut attempts) = (0u64, 0u64);
        for (b, a) in before.iter().zip(after) {
            let d = a.cache.since(&b.cache);
            self.ledger.cache_hits += d.hits;
            self.ledger.cache_misses += d.misses;
            self.ledger.cache_evictions += d.evictions;
            analysis_ns += d.analysis_nanos;
            let solver_attempts = a.attempts_by_solver.iter().zip(&b.attempts_by_solver);
            attempts += solver_attempts.map(|(x, y)| x - y).sum::<u64>();
        }
        let (hits, misses) = (self.ledger.cache_hits, self.ledger.cache_misses);
        self.cache_hit_rate = ratio(hits as f64, (hits + misses) as f64);
        self.analysis_ms_per_miss = ratio(analysis_ns as f64 / 1e6, misses as f64);
        self.attempts_per_job = ratio(attempts as f64, self.ledger.requests as f64);
    }
}

fn counters(service: &Service<f64>) -> Vec<EngineCounters> {
    (0..service.shards())
        .map(|s| service.engine(s).counters())
        .collect()
}

/// Replays the prefix through the service; with `tracer`, installs a
/// recorder and records request spans.
fn replay_service(
    inputs: &Inputs,
    n: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let ring = tracer
        .as_ref()
        .map(|_| Arc::new(RingRecorder::new(RING_EVENTS)));
    let service = stand_up(inputs, ring.clone())?;
    let before = counters(&service);
    let wait_before = ring
        .as_ref()
        .map_or(0, |r| r.counters()[Counter::QueueWaitNanos.index()]);
    let mut replay = Replay::default();
    let mut stream = inputs.stream().take(n);
    let start = Instant::now();
    closed_loop(
        DEPTH,
        || stream.next().map(|req| (req, service_request(inputs, req))),
        // The ticket carries when `submit` started and how long it took.
        |_, payload| {
            let t = Instant::now();
            let ticket = service.submit(payload);
            (ticket, t, t.elapsed())
        },
        |(ticket, t, submit)| (resolve(ticket), t, submit),
        |done| {
            let req = done.request;
            let (result, t, submit) = done.result;
            let (a, b) = (&inputs.matrices[req.matrix], &inputs.rhs[req.rhs]);
            let verdict = judge(a, b, result.as_ref());
            replay.ledger.requests += 1;
            replay.ledger.failed += u64::from(verdict.failed());
            replay.wrong += u64::from(matches!(verdict, run::Verdict::Wrong { .. }));
            if let Ok(r) = &result {
                replay.ledger.add_report(r);
            }
            replay.latency_ms.push(done.latency.as_secs_f64() * 1e3);
            replay.submit_us.push(submit.as_secs_f64() * 1e6);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(req.index, "service.request", t, done.latency);
                tr.record(req.index, "service.submit", t, submit);
                tr.record(
                    req.index,
                    "service.wait",
                    t + submit,
                    done.latency.saturating_sub(submit),
                );
            }
        },
    );
    replay.wall = start.elapsed();
    let after = counters(&service);
    replay.add_engine_deltas(&before, &after);
    replay.queue_wait_ns = ring.as_ref().map_or(0, |r| {
        r.counters()[Counter::QueueWaitNanos.index()] - wait_before
    });
    replay.shard_jobs = before
        .iter()
        .zip(&after)
        .map(|(b, a)| a.jobs_completed - b.jobs_completed)
        .collect();
    Ok(replay)
}

/// Replays the prefix through one sequence; with `tracer`, installs a
/// recorder on the engine and records a span around every step.
fn replay_sequence(
    inputs: &Inputs,
    n: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let mut engine = Engine::with_workers(acamar(), 1);
    if tracer.is_some() {
        engine = engine.with_recorder(Arc::new(RingRecorder::new(RING_EVENTS)));
    }
    let mut seq = run::open(&engine, inputs)?;
    let before = [engine.counters()];
    let mut replay = Replay::default();
    let start = Instant::now();
    for req in inputs.stream().take(n) {
        let (a, b) = (&inputs.matrices[req.matrix], &inputs.rhs[req.rhs]);
        let job = SequenceJob::new(Arc::clone(a), b.clone());
        let t = Instant::now();
        let result = seq.step(job);
        let latency = t.elapsed();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record(req.index, "engine.step", t, latency);
        }
        let verdict = judge(a, b, result.as_ref().map(|s| &s.report));
        replay.ledger.requests += 1;
        replay.ledger.failed += u64::from(verdict.failed());
        replay.wrong += u64::from(matches!(verdict, run::Verdict::Wrong { .. }));
        replay.latency_ms.push(latency.as_secs_f64() * 1e3);
        let step = result.map_err(|e| format!("step {} failed: {e}", req.index))?;
        replay.ledger.add_report(&step.report);
        let warm = matches!(step.warm_start, WarmStart::Used { .. });
        replay.steps.push((Arc::clone(seq.artifacts()), warm));
    }
    replay.wall = start.elapsed();
    replay.add_engine_deltas(&before, &[engine.counters()]);
    let stats = seq.stats();
    replay.ledger.patches = stats.plans_patched;
    replay.ledger.warm_starts = stats.warm_starts_used;
    replay.seq_plan_us = stats.plan_nanos_per_step() / 1e3;
    replay.seq_patch_us = ratio(stats.patch_nanos as f64 / 1e3, stats.plans_patched as f64);
    replay.seq_warm_start_rate = ratio(stats.warm_starts_used as f64, stats.steps as f64);
    Ok(replay)
}

fn replay(inputs: &Inputs, n: usize, tracer: Option<&mut Tracer>) -> Result<Replay, String> {
    match inputs.workload {
        Workload::PoissonSequence => replay_sequence(inputs, n, tracer),
        _ => replay_service(inputs, n, tracer),
    }
}

/// `num / den`, or `0.0` when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Computed bytes one SpMV moves: values and column indices once, row
/// pointers once, `x` once, `y` once (no cache reuse modeled).
fn spmv_bytes(a: &CsrMatrix<f64>) -> u64 {
    let word = std::mem::size_of::<usize>() as u64;
    a.nnz() as u64 * (8 + word) + (a.nrows() as u64 + 1) * word + (a.ncols() + a.nrows()) as u64 * 8
}

/// Copy-probe array size for an SpMV moving `bytes`: two arrays whose
/// combined footprint is `bytes` rounded up to a power of two (64 KiB at
/// least), so the ceiling comes from the same cache level.
fn footprint_array_bytes(bytes: u64) -> u64 {
    bytes.next_power_of_two().max(64 << 10) / 2
}

/// Span name of a bare solver run.
fn solver_layer(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Jacobi => "solvers.jacobi",
        SolverKind::ConjugateGradient => "solvers.cg",
        SolverKind::BiCgStab => "solvers.bicgstab",
        _ => "solvers.other",
    }
}

/// Layer samples of one peel pass.
#[derive(Debug, Default)]
struct Peel {
    fingerprint_us: Vec<f64>,
    /// Engine layer per request, ms (`solve_one`, or the traced step).
    engine_ms: Vec<f64>,
    analyze_ms: Vec<f64>,
    structure_us: Vec<f64>,
    msid_plan_us: Vec<f64>,
    compile_us: Vec<f64>,
    sptrsv_compile_us: Vec<f64>,
    run_with_plan_ms: Vec<f64>,
    /// Core layer per request: `run_with_plan`, plus the analysis when the
    /// engine layer missed its cache on that request.
    core_total_ms: f64,
    bare_ms: HashMap<SolverKind, Vec<f64>>,
    bare_total_ms: f64,
    spmv_ms: f64,
    spmv_generic_ms: f64,
    spmv_nnz: u64,
    spmv_bytes: u64,
    /// Σ bytes / copy ceiling of the same footprint, ms.
    spmv_ceiling_ms: f64,
    bare_ledger: Ledger,
    core_ledger: Ledger,
}

impl Peel {
    /// Times `Acamar::analyze` on `a`, then each of its public parts on
    /// their own; returns the whole analysis in ms.
    fn time_analysis(
        &mut self,
        acamar: &Acamar,
        a: &CsrMatrix<f64>,
        req: u64,
        tracer: &mut Tracer,
    ) -> Result<f64, String> {
        let (art, dur) = tracer.time(req, "core.analyze", || acamar.analyze(a));
        black_box(art);
        let analyze_ms = dur.as_secs_f64() * 1e3;
        self.analyze_ms.push(analyze_ms);
        let (s, dur) = tracer.time(req, "core.structure", || {
            MatrixStructureUnit::new().analyze(a)
        });
        self.structure_us.push(dur.as_secs_f64() * 1e6);
        let (plan, dur) = tracer.time(req, "core.msid_plan", || {
            FineGrainedReconfigUnit::new(acamar.config().clone()).plan(a)
        });
        self.msid_plan_us.push(dur.as_secs_f64() * 1e6);
        let hints = plan.schedule.band_hints();
        let (c, dur) = tracer.time(req, "sparse.compile", || CompiledSpmv::compile(a, &hints));
        c.map_err(|e| format!("compile failed: {e}"))?;
        self.compile_us.push(dur.as_secs_f64() * 1e6);
        if s.report.symmetric {
            let (pair, dur) = tracer.time(req, "sparse.sptrsv_compile", || {
                (
                    CompiledSptrsv::compile_lower(a),
                    CompiledSptrsv::compile_upper(a),
                )
            });
            black_box(&pair);
            self.sptrsv_compile_us.push(dur.as_secs_f64() * 1e6);
        }
        Ok(analyze_ms)
    }
}

/// Replays the prefix one layer at a time on this thread.
fn peel(
    inputs: &Inputs,
    n: usize,
    front: &Replay,
    copy_ceiling: &mut HashMap<u64, f64>,
    tracer: &mut Tracer,
) -> Result<Peel, String> {
    let acamar = acamar();
    let policy = policy(inputs.workload);
    let criteria = acamar.config().criteria;
    let mut p = Peel::default();

    // Engine layer: a single-worker engine set up like one shard.
    let engine = Engine::with_workers(acamar.clone(), 1);
    if inputs.workload == Workload::ColdIntake {
        engine.cache().set_capacity(COLD_CACHE_CAPACITY);
    }
    for (a, b) in &inputs.warmup {
        engine
            .solve_one(a, b)
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }
    let requests: Vec<Request> = inputs.stream().take(n).collect();
    let mut missed = vec![false; n];
    // The plan each request ran with, as the engine layer cached it: the
    // cache is keyed by pattern, so a request can run on the plan of an
    // earlier same-pattern matrix, and the inner layers must replay that.
    let mut plans: Vec<Arc<AnalysisArtifacts>> = Vec::with_capacity(n);
    for (k, req) in requests.iter().enumerate() {
        let (a, b) = (&inputs.matrices[req.matrix], &inputs.rhs[req.rhs]);
        let (fp, dur) = tracer.time(req.index, "engine.fingerprint", || {
            PatternFingerprint::of(a)
        });
        p.fingerprint_us.push(dur.as_secs_f64() * 1e6);
        if inputs.workload == Workload::PoissonSequence {
            // The sequence's engine layer is the step the front-door
            // replay already timed, with the plan it patched.
            p.engine_ms.push(front.latency_ms[k]);
            plans.push(Arc::clone(&front.steps[k].0));
            continue;
        }
        let misses = engine.counters().cache.misses;
        let (r, dur) = tracer.time(req.index, "engine.solve_one", || engine.solve_one(a, b));
        r.map_err(|e| format!("solve_one failed: {e}"))?;
        p.engine_ms.push(dur.as_secs_f64() * 1e3);
        missed[k] = engine.counters().cache.misses > misses;
        plans.push(
            engine
                .cache()
                .peek(&fp)
                .ok_or("a just-solved pattern is missing from the plan cache")?,
        );
    }

    // Core layer: analysis (and its public parts) once per distinct
    // pattern in the prefix, then `run_with_plan` per request.
    let mut analyze_ms: HashMap<usize, f64> = HashMap::new();
    let mut prev_solution: Option<Vec<f64>> = None;
    for (k, req) in requests.iter().enumerate() {
        let (a, b) = (&inputs.matrices[req.matrix], &inputs.rhs[req.rhs]);
        let analysis_ms = match analyze_ms.entry(req.matrix) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(p.time_analysis(&acamar, a, req.index, tracer)?),
        };
        let art = &plans[k];
        // A sequence step is seeded from the previous solution when the
        // front-door step was.
        let warm = inputs.workload == Workload::PoissonSequence && front.steps[k].1;
        let guess = if warm { prev_solution.clone() } else { None };
        let opts = RunOptions {
            policy,
            ..RunOptions::default()
        };
        let (report, dur) = tracer.time(req.index, "core.run_with_plan", || {
            acamar.run_with_plan_opts(a, b, guess.as_deref(), art, opts)
        });
        let report = report.map_err(|e| format!("run_with_plan failed: {e}"))?;
        let run_ms = dur.as_secs_f64() * 1e3;
        p.run_with_plan_ms.push(run_ms);
        p.core_total_ms += run_ms + if missed[k] { analysis_ms } else { 0.0 };
        p.core_ledger.requests += 1;
        p.core_ledger.add_report(&report);

        // Solver layer: the same attempts on the software executor.
        let mut calls = 0u64;
        for attempt in &report.attempts {
            let mut kernels = SoftwareKernels::new()
                .with_compiled_plan(Arc::clone(&art.compiled))
                .with_policy(policy);
            let (r, dur) = tracer.time(req.index, solver_layer(attempt.solver), || {
                solve_with(
                    attempt.solver,
                    a,
                    b,
                    guess.as_deref(),
                    &criteria,
                    &mut kernels,
                )
            });
            let r = r.map_err(|e| format!("bare solve failed: {e}"))?;
            let ms = dur.as_secs_f64() * 1e3;
            p.bare_ms.entry(attempt.solver).or_default().push(ms);
            p.bare_total_ms += ms;
            p.bare_ledger.iterations += r.iterations as u64;
            let counts = Kernels::<f64>::counts(&kernels);
            p.bare_ledger.spmv_calls += counts.spmv_calls;
            p.bare_ledger.flops += counts.total_flops();
            calls += counts.spmv_calls;
        }
        p.bare_ledger.requests += 1;

        // Sparse layer: the compiled plan (and the generic walk) at the
        // solver's SpMV call count.
        let x = &report.solve.solution;
        let mut y = vec![0.0f64; a.nrows()];
        let (r, dur) = tracer.time(req.index, "sparse.spmv", || {
            for _ in 0..calls {
                match policy {
                    DeterminismPolicy::Fast => art.compiled.execute_fast(a, black_box(x), &mut y),
                    _ => art.compiled.execute(a, black_box(x), &mut y),
                }?;
                black_box(&mut y);
            }
            Ok::<(), acamar_sparse::SparseError>(())
        });
        r.map_err(|e| format!("compiled SpMV failed: {e}"))?;
        p.spmv_ms += dur.as_secs_f64() * 1e3;
        let (r, dur) = tracer.time(req.index, "sparse.spmv_generic", || {
            for _ in 0..calls {
                a.mul_vec_into(black_box(x), &mut y)?;
                black_box(&mut y);
            }
            Ok::<(), acamar_sparse::SparseError>(())
        });
        r.map_err(|e| format!("generic SpMV failed: {e}"))?;
        p.spmv_generic_ms += dur.as_secs_f64() * 1e3;
        let bytes = spmv_bytes(a);
        let array = footprint_array_bytes(bytes);
        let gbps = *copy_ceiling
            .entry(array)
            .or_insert_with(|| copy_gbps(array, COPY_REPS));
        p.spmv_nnz += calls * a.nnz() as u64;
        p.spmv_bytes += calls * bytes;
        p.spmv_ceiling_ms += (calls * bytes) as f64 / (gbps * 1e9) * 1e3;
        prev_solution = Some(report.solve.solution);
    }
    Ok(p)
}

/// (name, unit, value) of one per-layer metric.
type Row = (&'static str, &'static str, f64);

/// One pass's per-layer values.
fn pass_metrics(inputs: &Inputs, n: usize, front: &Replay, p: &Peel) -> Vec<Row> {
    let nf = n as f64;
    let engine_solve_ms = median(&p.engine_ms);
    let service = inputs.workload != Workload::PoissonSequence;
    let total_jobs: u64 = front.shard_jobs.iter().sum();
    let bare = |k: SolverKind| p.bare_ms.get(&k).map_or(0.0, |v| median(v));
    let engine_total: f64 = p.engine_ms.iter().sum();
    let run_total: f64 = p.run_with_plan_ms.iter().sum();
    vec![
        (
            "service.submit_us",
            "us",
            if service {
                median(&front.submit_us)
            } else {
                0.0
            },
        ),
        (
            "service.queue_wait_ms",
            "ms",
            front.queue_wait_ns as f64 / 1e6 / nf,
        ),
        (
            "service.self_ms",
            "ms",
            if service {
                median(&front.latency_ms) - engine_solve_ms
            } else {
                0.0
            },
        ),
        (
            "service.shard_share_max",
            "fraction",
            ratio(
                front.shard_jobs.iter().copied().max().unwrap_or(0) as f64,
                total_jobs as f64,
            ),
        ),
        ("engine.fingerprint_us", "us", median(&p.fingerprint_us)),
        ("engine.solve_ms", "ms", engine_solve_ms),
        (
            "engine.self_ms",
            "ms",
            (engine_total - p.core_total_ms) / nf,
        ),
        ("engine.cache_hit_rate", "fraction", front.cache_hit_rate),
        (
            "engine.cache_evictions",
            "count",
            front.ledger.cache_evictions as f64,
        ),
        ("engine.analysis_ms", "ms", front.analysis_ms_per_miss),
        (
            "engine.attempts_per_job",
            "count/req",
            front.attempts_per_job,
        ),
        ("engine.seq_plan_us", "us", front.seq_plan_us),
        ("engine.seq_patches", "count", front.ledger.patches as f64),
        (
            "engine.seq_warm_start_rate",
            "fraction",
            front.seq_warm_start_rate,
        ),
        ("core.analyze_ms", "ms", median(&p.analyze_ms)),
        ("core.structure_us", "us", median(&p.structure_us)),
        ("core.msid_plan_us", "us", median(&p.msid_plan_us)),
        (
            "core.solver_switches",
            "count/req",
            p.core_ledger.solver_switches as f64 / nf,
        ),
        ("core.run_with_plan_ms", "ms", median(&p.run_with_plan_ms)),
        (
            "solvers.bare_solve_ms.jacobi",
            "ms",
            bare(SolverKind::Jacobi),
        ),
        (
            "solvers.bare_solve_ms.cg",
            "ms",
            bare(SolverKind::ConjugateGradient),
        ),
        (
            "solvers.bare_solve_ms.bicgstab",
            "ms",
            bare(SolverKind::BiCgStab),
        ),
        ("solvers.self_ms", "ms", (p.bare_total_ms - p.spmv_ms) / nf),
        (
            "solvers.iterations",
            "count/req",
            p.bare_ledger.iterations as f64 / nf,
        ),
        (
            "solvers.spmv_calls",
            "count/req",
            p.bare_ledger.spmv_calls as f64 / nf,
        ),
        ("solvers.flops", "flop/req", p.bare_ledger.flops as f64 / nf),
        (
            "sparse.spmv_ns_per_nnz",
            "ns/nnz",
            ratio(p.spmv_ms * 1e6, p.spmv_nnz as f64),
        ),
        (
            "sparse.spmv_generic_ns_per_nnz",
            "ns/nnz",
            ratio(p.spmv_generic_ms * 1e6, p.spmv_nnz as f64),
        ),
        (
            "sparse.spmv_share",
            "fraction",
            ratio(p.spmv_ms, p.bare_total_ms),
        ),
        (
            "sparse.spmv_gbps",
            "GB/s",
            ratio(p.spmv_bytes as f64 / 1e6, p.spmv_ms),
        ),
        (
            "sparse.spmv_bw_frac",
            "fraction",
            ratio(p.spmv_ceiling_ms, p.spmv_ms),
        ),
        ("sparse.compile_us", "us", median(&p.compile_us)),
        (
            "sparse.sptrsv_compile_us",
            "us",
            median(&p.sptrsv_compile_us),
        ),
        ("sparse.patch_us", "us", front.seq_patch_us),
        (
            "fabric.overhead_ms",
            "ms",
            (run_total - p.bare_total_ms) / nf,
        ),
        (
            "fabric.cycles_per_solve",
            "cycle/req",
            p.core_ledger.cycles as f64 / nf,
        ),
        (
            "fabric.reconfig_events",
            "count/req",
            p.core_ledger.reconfig_events as f64 / nf,
        ),
        ("fabric.ru", "fraction", p.core_ledger.ru()),
    ]
}

/// The `--trace 1` run.
///
/// # Errors
///
/// Set-up or replay failures, or an unwritable span file.
pub fn traced(inputs: &Inputs, seconds: f64, host: &Host) -> Result<Obj, String> {
    let n = prefix(inputs.workload);
    let mut tracer = Tracer {
        epoch: Instant::now(),
        pass: 0,
        spans: Vec::new(),
    };
    let llc4x_bytes = host.llc4x_array_bytes();
    let llc4x_gbps = copy_gbps(llc4x_bytes, 3);
    let mut copy_ceiling: HashMap<u64, f64> = HashMap::new();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut per_pass: Vec<Vec<Row>> = Vec::new();
    let mut layer_rows: Vec<[f64; 5]> = Vec::new();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let (mut traced_wall, mut plain_wall) = (0.0f64, 0.0f64);
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    while per_pass.len() < MIN_PASSES || (Instant::now() < deadline && per_pass.len() < MAX_PASSES)
    {
        tracer.pass = per_pass.len();
        // Alternate which replay runs first, so warm-up drift cancels.
        let (plain, front) = if tracer.pass % 2 == 0 {
            let plain = replay(inputs, n, None)?;
            (plain, replay(inputs, n, Some(&mut tracer))?)
        } else {
            let front = replay(inputs, n, Some(&mut tracer))?;
            (replay(inputs, n, None)?, front)
        };
        plain_wall += plain.wall.as_secs_f64();
        traced_wall += front.wall.as_secs_f64();
        for r in [&plain, &front] {
            attempted += r.ledger.requests;
            failed += r.ledger.failed;
            wrong += r.wrong;
        }
        let p = peel(inputs, n, &front, &mut copy_ceiling, &mut tracer)?;
        let request_ms: f64 = front.latency_ms.iter().sum();
        let engine_ms: f64 = p.engine_ms.iter().sum();
        layer_rows.push([
            request_ms,
            engine_ms,
            p.core_total_ms,
            p.bare_total_ms,
            p.spmv_ms,
        ]);
        per_pass.push(pass_metrics(inputs, n, &front, &p));
        ledgers.extend([plain.ledger, front.ledger]);
        let mut core = p.core_ledger;
        core.cache_hits = front.ledger.cache_hits;
        core.cache_misses = front.ledger.cache_misses;
        core.cache_evictions = front.ledger.cache_evictions;
        core.patches = front.ledger.patches;
        core.warm_starts = front.ledger.warm_starts;
        core.failed = front.ledger.failed;
        ledgers.push(core);
    }

    let ledger = ledgers[0];
    let repeats = ledgers.iter().all(|l| *l == ledger);
    println!(
        "ledger {}",
        ledger
            .json()
            .int("prefix", n as u64)
            .int("replays", ledgers.len() as u64)
            .bool("repeats_exactly", repeats)
            .str("digest", &format!("{:016x}", ledger.digest()))
            .finish()
    );

    let names = ["service", "engine", "core", "solvers", "sparse"];
    // The sequence has no service layer: its outermost layer is the step.
    let outer = usize::from(inputs.workload == Workload::PoissonSequence);
    let mut layers = Obj::new().int("requests", n as u64);
    for (i, name) in names.iter().enumerate().skip(outer) {
        let inner = |r: &[f64; 5]| if i + 1 < names.len() { r[i + 1] } else { 0.0 };
        let total = median(&layer_rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        let own = median(
            &layer_rows
                .iter()
                .map(|r| r[i] - inner(r))
                .collect::<Vec<_>>(),
        );
        layers = layers.obj(name, Obj::new().num("total_ms", total).num("self_ms", own));
    }
    println!("layers {}", layers.finish());

    let mut sizes = Obj::new()
        .int("llc4x_array_bytes", llc4x_bytes)
        .num("llc4x_gbps", llc4x_gbps);
    let mut footprints: Vec<_> = copy_ceiling.iter().collect();
    footprints.sort_by_key(|(bytes, _)| **bytes);
    for (bytes, gbps) in footprints {
        sizes = sizes.num(&format!("array_{bytes}_gbps"), *gbps);
    }
    println!("copy_probe {}", sizes.finish());

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/trace-{}.jsonl", inputs.workload.name()));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans {}",
        Obj::new()
            .int("count", tracer.spans.len() as u64)
            .str("file", &path.display().to_string())
            .int("passes", per_pass.len() as u64)
            .finish()
    );

    let mut metrics = Obj::new();
    for (i, (name, unit, _)) in per_pass[0].iter().enumerate() {
        let v = median(&per_pass.iter().map(|m| m[i].2).collect::<Vec<_>>());
        metrics = metrics.obj(name, crate::metric(v, unit));
    }
    metrics = metrics.obj("sparse.copy_gbps_llc4x", crate::metric(llc4x_gbps, "GB/s"));
    metrics = metrics.obj(
        "bench.trace_overhead_pct",
        crate::metric((traced_wall / plain_wall - 1.0) * 100.0, "%"),
    );
    Ok(Obj::new()
        .bool("correct", wrong == 0 && repeats)
        .int("attempted", attempted)
        .int("failed", failed)
        .obj("metrics", metrics))
}
