//! The process's resident set, from Linux procfs.

/// Resets the resident high-water mark (`VmHWM`) to the current resident
/// set, so the next reading covers only what follows.
pub fn reset_peak() {
    // "5" resets the peak RSS; a kernel without it leaves the mark as is,
    // which only overstates the peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Resident high-water mark since the last reset, in MB.
pub fn peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set, in MB.
pub fn now_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}
