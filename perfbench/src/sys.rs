//! Process resource usage.

/// The peak resident set size of this process image so far, in MiB: the
/// kernel's `VmHWM` for the process. (`getrusage`'s `ru_maxrss` would also
/// count the memory of whatever process forked this one before `exec`, such
/// as `cargo run`.)
///
/// # Errors
///
/// A message when the kernel's status file cannot be read or carries no
/// `VmHWM` line (a kernel without procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "the process status carries no VmHWM line".to_string())
}

/// The `VmHWM:  <n> kB` value of a `/proc/<pid>/status` document, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|number| number.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_status_line_parses() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1536));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = peak_rss_mb().unwrap();
        assert!(before > 0.0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb().unwrap() >= before + 32.0);
    }
}
