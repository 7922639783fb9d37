//! What `/proc` and the toolchain say about this process and machine:
//! peak memory, CPU time and context switches for the metrics, and the
//! hardware record every report carries.

use std::fs;
use std::process::Command;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Kernel clock ticks per second. Linux has reported 100 to user
/// space on every architecture since 2.6, and std cannot ask.
const CLK_TCK: f64 = 100.0;

/// A reading of the process's cumulative resource use.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Voluntary context switches, summed over the live threads.
    pub voluntary_switches: u64,
}

impl Usage {
    /// Read now. Threads that already exited no longer count toward
    /// the switches, so take both readings of a window while its
    /// worker threads are alive.
    pub fn now() -> Usage {
        let cpu_s = fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                // Fields after the parenthesised command name; utime
                // and stime are fields 14 and 15 of the whole line.
                let rest = &stat[stat.rfind(')')? + 1..];
                let mut fields = rest.split_whitespace().skip(11);
                let utime: f64 = fields.next()?.parse().ok()?;
                let stime: f64 = fields.next()?.parse().ok()?;
                Some((utime + stime) / CLK_TCK)
            })
            .unwrap_or(0.0);
        let voluntary_switches = fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .filter_map(Result::ok)
                .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
                .filter_map(|status| {
                    status
                        .lines()
                        .find(|l| l.starts_with("voluntary_ctxt_switches:"))?
                        .split_whitespace()
                        .nth(1)?
                        .parse::<u64>()
                        .ok()
                })
                .sum()
        });
        Usage {
            cpu_s,
            voluntary_switches,
        }
    }
}

/// The machine and toolchain a report was measured on.
#[derive(Clone, Debug)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Environment {
    pub fn detect() -> Self {
        let first_line = |path: &str| {
            fs::read_to_string(path)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        };
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Environment {
            nproc: nproc(),
            cpu_model,
            kernel: first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // A bare checkout (the driver's) is not a git repository.
            git_commit: run("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_monotone() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().unwrap() > 0.0);
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let after = Usage::now();
        assert!(after.cpu_s >= before.cpu_s);
        assert!(after.voluntary_switches > before.voluntary_switches);
    }
}
