//! Host-side measurements: the calibration kernel, the timer's own cost,
//! peak memory, and the host fingerprint.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Times a fixed spin kernel (a dependent xorshift-multiply chain, no
/// memory traffic) and returns its median duration in nanoseconds over
/// `reps` runs. The kernel never changes with the program under test, so
/// a shift in this number between two runs means the host changed speed
/// (a noisy neighbour, frequency scaling), not the code.
pub fn calib_ns(reps: usize) -> f64 {
    const ITERS: u64 = 2_000_000;
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|r| {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64 ^ r as u64);
            let t = Instant::now();
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo` (`unknown` where absent).
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned())
}

/// First line of `<program> <args>` output, or `unknown` if it cannot run.
pub fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
