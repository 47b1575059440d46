//! What the benchmark reads from the machine: the calibration kernel behind
//! `box.slowdown`, peak memory, and the box description stored with a result
//! set.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Value};

/// Best-of-five wall time, in milliseconds, of a fixed kernel (about 2.5 ms
/// on the reference box): four independent xorshift lanes, random reads in a
/// 4 MiB table, and a copy of it. It touches nothing of the repository, so a
/// change in its time is a change in the box, not the code. (A single
/// dependent multiply chain was tried first and rejected: on the reference
/// box its time flips between two values a factor of two apart for seconds at
/// a stretch while every workload's time stays put.)
#[must_use]
pub fn sentinel_ms() -> f64 {
    const WORDS: usize = 1 << 19;
    let table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut copy = vec![0u64; WORDS];
    let step = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
    };
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut lanes = [1u64, 2, 3, 4];
        for _ in 0..500_000u32 {
            lanes.iter_mut().for_each(step);
        }
        let mut x = 12_345u64;
        let mut sum = 0u64;
        for _ in 0..200_000u32 {
            step(&mut x);
            sum = sum.wrapping_add(table[(x as usize) & (WORDS - 1)]);
        }
        copy.copy_from_slice(black_box(&table));
        black_box((lanes, sum, &mut copy));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores the process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The box and build a result set was taken on.
#[must_use]
pub fn describe() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    json::obj([
        ("nproc", Value::from(nproc() as u64)),
        ("cpu", Value::from(cpu)),
        (
            "rustc",
            Value::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        // Every durable store the benchmark opens uses this policy: the
        // sandbox's fsync latency is not a device's.
        ("fsync", Value::from("never")),
        ("loop", Value::from("closed")),
        ("server_workers", Value::from(2u64)),
        ("server_shards", Value::from(2u64)),
        ("client_par_threads", Value::from(1u64)),
    ])
}
