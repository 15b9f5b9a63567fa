//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2_warm|cold_intake|poisson_sequence> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` replays the same seeded stream layer by layer and reports
//! the per-layer metrics. The last line of standard output is the JSON
//! result; the lines before it are the host header and details. See
//! `perfbench/README.md`.

mod check;
mod closed_loop;
mod host;
mod inputs;
mod json;
mod peel;
mod run;
mod stats;

use host::Host;
use inputs::{Inputs, Workload};
use json::Obj;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
fn metric(value: f64, unit: &str) -> Obj {
    Obj::new().num("value", value).str("unit", unit)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!("host {}", host.json().finish());

    let t = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed);
    let nnz: usize = inputs.matrices.iter().map(|a| a.nnz()).sum();
    println!(
        "workload {}",
        Obj::new()
            .str("name", args.workload.name())
            .int("seed", args.seed)
            .int("matrices", inputs.matrices.len() as u64)
            .int("rhs", inputs.rhs.len() as u64)
            .int("total_nnz", nnz as u64)
            .str(
                "stream_digest_1000",
                &format!("{:016x}", inputs.stream_digest(1000)),
            )
            .num("generate_s", t.elapsed().as_secs_f64())
            .finish()
    );

    let outcome = if args.trace {
        peel::traced(&inputs, args.seconds, &host)
    } else {
        untraced(&inputs, args.seconds)
    };
    match outcome {
        Ok(result) => {
            println!("{}", result.finish());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `--trace 0` run: end-to-end metrics.
fn untraced(inputs: &Inputs, seconds: f64) -> Result<Obj, String> {
    let m = run::measure(inputs, seconds)?;
    let tally = &m.tally;
    let (steal, quiet_steal) = m.steal_s();
    let mut detail = Obj::new()
        .int("samples", tally.attempted)
        .num("window_s", m.window_s)
        .num("quiet_s", m.quiet_s())
        .int("quiet_samples", m.quiet_count() as u64)
        .num("cpu_steal_s", steal)
        .num("quiet_cpu_steal_s", quiet_steal)
        .num("window_p50_ms", m.window_latency_ms(50.0))
        .num("window_p99_ms", m.window_latency_ms(99.0))
        .int("failed", tally.failed)
        .int("wrong", tally.wrong)
        .num("max_residual", tally.max_residual)
        .num("tolerance", run::tolerance())
        .str(
            "setups_s",
            &m.setups
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(","),
        );
    match m.tail() {
        Some((p, v)) => detail = detail.num("tail_percentile", p).num("tail_ms", v),
        None => detail = detail.str("tail_percentile", "fewer than 20 samples"),
    }
    if inputs.workload == Workload::Table2Warm {
        let (digest, covered) = tally.solution_digest();
        detail = detail
            .str("solution_digest", &format!("{digest:016x}"))
            .int("digest_requests", covered as u64);
    }
    println!("window {}", detail.finish());

    // `failed_frac` never reads below FAILED_FLOOR, so it is never 0;
    // one failure in a window lifts it well above. The exact counts are
    // `attempted` and `failed`.
    let failed_frac = (tally.failed as f64 / tally.attempted as f64).max(run::FAILED_FLOOR);
    let metrics = Obj::new()
        .obj("setup_s", metric(m.setup_s, "s"))
        .obj("solves_per_s", metric(m.solves_per_s(), "1/s"))
        .obj("latency_p50_ms", metric(m.latency_ms(50.0), "ms"))
        .obj("latency_p99_ms", metric(m.latency_ms(99.0), "ms"))
        .obj("failed_frac", metric(failed_frac, "fraction"))
        .obj("peak_rss_mb", metric(m.peak_rss_mb, "MiB"));
    Ok(Obj::new()
        .bool("correct", tally.wrong == 0)
        .int("attempted", tally.attempted)
        .int("failed", tally.failed)
        .obj("metrics", metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload cold_intake --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ColdIntake);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload cold_intake --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload cold_intake --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload cold_intake --seed")).is_err());
    }
}
