//! Host-side measurements: process CPU time, resident memory, a fixed
//! calibration loop, and the identity of the machine and toolchain.

use crate::json::Value;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). Linux
/// fixes it at 100 on every architecture it exports that file on.
const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time of this process in nanoseconds, all threads,
/// exited ones included. Zero where `/proc` does not exist.
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may hold spaces; fields are counted from
    // the parenthesis that closes it. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * (1_000_000_000 / TICKS_PER_SEC)
}

/// Peak resident set size of this process (`VmHWM` in `/proc/self/status`),
/// KiB. Zero when unavailable.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nanoseconds per iteration of a fixed, dependent integer chain. It does
/// no memory traffic and calls no simulator code, so a change in it between
/// rounds is the host drifting (frequency, a busy sibling thread), never
/// the program under test. The xor-shift keeps the recurrence from being
/// affine, which the compiler would unroll into a closed form.
pub fn calib_ns() -> f64 {
    const ITERS: u64 = 10_000_000;
    let t0 = Instant::now();
    let mut x = black_box(1u64);
    for _ in 0..ITERS {
        x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

/// Where and with what the numbers were taken. Every field degrades to
/// `"unknown"`: the driver's checkout is not a git repository.
pub fn info() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        });
    let unknown = || "unknown".to_string();
    Value::obj([
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Value::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("cpu_model", Value::str(cpu_model.unwrap_or_else(unknown))),
        ("cpus", Value::from(cpus() as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_memory_is_resident() {
        let before = cpu_ns();
        assert!(calib_ns() > 0.0);
        // Several calibration loops burn more than one tick of the 10 ms
        // CPU clock.
        for _ in 0..4 {
            calib_ns();
        }
        assert!(cpu_ns() > before);
        assert!(peak_rss_kib() > 0);
    }
}
