//! Resident memory of this process, from `/proc/self/status`.

fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Current resident set size, in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Peak resident set size of the process so far, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}
