//! The environment stamp printed with every result, and process memory.

use std::process::Command;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out git revision, or `"unknown"` outside a git work tree.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One JSON object describing where and how this result was measured.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool, serve_rate_rps: f64) -> String {
    format!(
        "{{\"env\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace},\"nproc\":{},\"git_rev\":\"{}\",\"rustc\":\"{}\",\
         \"serve_rate_rps\":{serve_rate_rps}}}}}",
        nproc(),
        git_revision(),
        env!("PERFBENCH_RUSTC_VERSION").replace('"', "'"),
    )
}
