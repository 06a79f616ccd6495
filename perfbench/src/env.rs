//! The environment record: what machine and which code produced a result.

use std::path::Path;

use crate::json::Json;

/// `nproc`, CPU model, memory, kernel and git commit.
pub fn record() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kib = proc_field_kib(&meminfo, "MemTotal:").unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("mem_total_mb", Json::Num(mem_kib as f64 / 1024.0)),
        ("kernel", Json::Str(kernel)),
        ("git_commit", Json::Str(git_commit(Path::new(".")))),
    ])
}

/// Available parallelism: the `scan_threads` auto value and the client count.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree that is not a git checkout records `unknown`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn proc_field_kib(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// This process's high-water resident set size, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    proc_field_kib(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Reset the high-water mark to the current RSS, so a phase reports its
/// own peak rather than an earlier phase's. Heap pages freed by set-up are
/// returned to the kernel first, so they do not count towards the peak.
/// Best effort: kernels that refuse leave the mark where it was.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory; it
        // touches no memory the program still owns.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time counters from `/proc/stat`: (steal, total), in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
