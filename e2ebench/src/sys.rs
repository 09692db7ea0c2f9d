//! Process facts: peak resident memory.

/// Parse the `VmHWM:` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident set size of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
    }

    #[test]
    fn rejects_missing_or_odd_vm_hwm() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn own_peak_is_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
