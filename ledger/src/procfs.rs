//! What the harness reads from `/proc`: on-CPU time per thread, peak
//! resident memory, and the host line printed with every result.
//!
//! On-CPU time comes from `/proc/<pid>/task/<tid>/schedstat`, whose first
//! field is the nanoseconds the thread has spent running. The kernel
//! advances it at scheduler ticks and context switches (4 ms on this
//! host), so it is only read around windows of at least half a second.

use std::fs;

/// First field of a `schedstat` line: nanoseconds on CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds of every live thread of `pid`, with its `comm`.
/// A thread that exits between the directory listing and the read is
/// skipped; none does during a measured phase.
pub fn thread_cpu(pid: u32) -> Vec<(String, u64)> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let ns = parse_schedstat(&fs::read_to_string(path.join("schedstat")).ok()?)?;
            let comm = fs::read_to_string(path.join("comm")).ok()?;
            Some((comm.trim_end().to_string(), ns))
        })
        .collect()
}

/// Total on-CPU nanoseconds of `pid`, all threads.
pub fn process_cpu(pid: u32) -> u64 {
    thread_cpu(pid).iter().map(|(_, ns)| ns).sum()
}

/// On-CPU nanoseconds of the threads whose `comm` starts with `prefix`.
pub fn cpu_of(threads: &[(String, u64)], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|(comm, _)| comm.starts_with(prefix))
        .map(|(_, ns)| ns)
        .sum()
}

/// Peak resident set of `pid` in MB (0 if the process is gone).
pub fn rss_peak_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `nproc` and CPU model, recorded with every output because every timed
/// number depends on them.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc {nproc}, cpu {model}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field() {
        assert_eq!(parse_schedstat("284908300 65219 17\n"), Some(284_908_300));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tsss\nVmPeak:\t  9000 kB\nVmHWM:\t    1680 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1680));
        assert_eq!(parse_vm_hwm_kb("Name:\tsss\n"), None);
    }

    #[test]
    fn cpu_of_sums_by_prefix() {
        let t = vec![
            ("sss-shard-0".to_string(), 5),
            ("sss-shard-1".to_string(), 7),
            ("sss-net-ingest".to_string(), 11),
        ];
        assert_eq!(cpu_of(&t, "sss-shard-"), 12);
        assert_eq!(cpu_of(&t, "sss-net-ingest"), 11);
        assert_eq!(cpu_of(&t, "ledger"), 0);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(!thread_cpu(me).is_empty());
        assert!(rss_peak_mb(me) > 0.0);
    }
}
