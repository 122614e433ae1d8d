//! Facts about the machine and process a run was measured on.

use std::process::Command;

/// Worker threads the program's own pools default to.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Value in kB of a `Key:   123 kB` line of a `/proc` status file.
fn proc_kb(path: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process in MB; `None` where `/proc`
/// is not available.
pub fn peak_rss_mb() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM").map(|kb| kb as f64 * 1024.0 / 1e6)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// The host header printed above every suite run: cores, memory, compiler
/// and commit, so a number is never quoted without the box it came from.
pub fn header() -> String {
    let mem_gb = proc_kb("/proc/meminfo", "MemTotal")
        .map(|kb| format!("{:.1} GB", kb as f64 * 1024.0 / 1e9))
        .unwrap_or_else(|| "unknown".into());
    let rustc = first_line("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into());
    // the driver's checkout is not a git repository: say so instead of failing
    let commit =
        first_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "no git".into());
    format!(
        "host: nproc {} | MemTotal {mem_gb} | {rustc} | commit {commit}",
        nproc()
    )
}
