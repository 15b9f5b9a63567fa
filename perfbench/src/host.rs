//! The host header, peak memory, and the copy-bandwidth probe that gives
//! SpMV its measured ceiling.

use crate::json::Obj;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// What the header says about the machine and the build.
#[derive(Debug, Clone)]
pub struct Host {
    /// Online CPUs (`/sys/devices/system/cpu/online`).
    pub cpus_online: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Per-core unified L2 bytes (0 if unknown).
    pub l2_bytes: u64,
    /// Last-level cache bytes as the kernel reports it (0 if unknown).
    pub llc_bytes: u64,
}

impl Host {
    /// Reads the header facts from sysfs.
    pub fn probe() -> Host {
        let cpus_online = std::fs::read_to_string("/sys/devices/system/cpu/online")
            .ok()
            .and_then(|s| count_cpu_list(s.trim()))
            .unwrap_or(0);
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let caches = unified_caches();
        let l2_bytes = caches
            .iter()
            .find(|(level, _)| *level == 2)
            .map_or(0, |c| c.1);
        let llc_bytes = caches.iter().max_by_key(|c| c.0).map_or(0, |c| c.1);
        Host {
            cpus_online,
            available_parallelism,
            l2_bytes,
            llc_bytes,
        }
    }

    /// Bytes of each array in the DRAM copy probe: four times the
    /// reported LLC, at least 64 MiB when the LLC size is unknown.
    pub fn llc4x_array_bytes(&self) -> u64 {
        (4 * self.llc_bytes).max(64 << 20)
    }

    /// The header as a JSON object.
    pub fn json(&self) -> Obj {
        Obj::new()
            .int("cpus_online", self.cpus_online as u64)
            .int("available_parallelism", self.available_parallelism as u64)
            .int("l2_bytes", self.l2_bytes)
            .int("llc_bytes", self.llc_bytes)
            .int("copy_llc4x_array_bytes", self.llc4x_array_bytes())
            .str("rustc", env!("PERFBENCH_RUSTC"))
            .str("commit", env!("PERFBENCH_COMMIT"))
            .str("profile", env!("PERFBENCH_PROFILE"))
    }
}

/// Counts CPUs in a sysfs list such as `0-1,4`.
fn count_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

/// `(level, bytes)` of cpu0's unified and data caches.
fn unified_caches() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim())) {
            out.push((level, bytes));
        }
    }
    out
}

/// Parses sysfs cache sizes such as `2048K` or `300M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time stolen from this machine by its hypervisor so far, seconds
/// (`/proc/stat`, all CPUs), or `None` where it is not reported.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on every Linux ABI the benchmark runs on.
    Some(ticks / 100.0)
}

/// Copy bandwidth in GB/s (computed bytes: one read and one write of
/// each element) between two arrays of `array_bytes` each: the median of
/// `reps` timed copies after one untimed copy that faults the pages in.
pub fn copy_gbps(array_bytes: u64, reps: usize) -> f64 {
    let n = (array_bytes as usize / 8).max(1);
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; n];
    dst.copy_from_slice(&src);
    // Small arrays repeat inside one timing so each sample lasts ~1 ms.
    let inner = ((1 << 20) / n).max(1);
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                black_box(&mut dst).copy_from_slice(black_box(&src));
            }
            let secs = t.elapsed().as_secs_f64();
            (2 * 8 * n * inner) as f64 / secs / 1e9
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_formats() {
        assert_eq!(count_cpu_list("0-1"), Some(2));
        assert_eq!(count_cpu_list("0-3,8"), Some(5));
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("x"), None);
    }
}
