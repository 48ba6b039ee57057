//! Process memory from `/proc/self/status`, standard library only.

/// Resident-set figures of one process, in kibibytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Memory {
    /// Current resident set (`VmRSS`).
    pub rss_kb: u64,
    /// Peak resident set so far (`VmHWM`).
    pub hwm_kb: u64,
}

impl Memory {
    /// Current resident set, MB (10^6 bytes).
    pub fn rss_mb(self) -> f64 {
        self.rss_kb as f64 * 1024.0 / 1e6
    }

    /// Peak resident set, MB (10^6 bytes).
    pub fn hwm_mb(self) -> f64 {
        self.hwm_kb as f64 * 1024.0 / 1e6
    }
}

/// Parses the `VmRSS` and `VmHWM` lines of a `/proc/<pid>/status`
/// text. Returns `None` unless both are present and well formed
/// (`<key>:<whitespace><digits> kB`).
pub fn parse_status(text: &str) -> Option<Memory> {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        let rest = line[key.len()..].strip_prefix(':')?.trim();
        let digits = rest.strip_suffix("kB")?.trim_end();
        digits.parse().ok()
    };
    Some(Memory {
        rss_kb: field("VmRSS")?,
        hwm_kb: field("VmHWM")?,
    })
}

/// Reads this process's current and peak resident set.
///
/// # Panics
///
/// Panics if `/proc/self/status` is unreadable or lacks the fields
/// (the benchmark needs Linux procfs).
pub fn current() -> Memory {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status(&text).expect("/proc/self/status carries VmRSS and VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Name:\trpu-perfbench\nVmPeak:\t  300000 kB\nVmSize:\t  250000 kB\n\
                          VmHWM:\t  123456 kB\nVmRSS:\t   65432 kB\nThreads:\t1\n";

    #[test]
    fn parses_rss_and_peak() {
        let m = parse_status(SAMPLE).unwrap();
        assert_eq!(
            m,
            Memory {
                rss_kb: 65432,
                hwm_kb: 123_456
            }
        );
        assert!((m.hwm_mb() - 123_456.0 * 1024.0 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn missing_or_malformed_fields_are_rejected() {
        assert_eq!(parse_status("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_status("VmRSS:\t 10 kB\nVmHWM:\t ten kB\n"), None);
        assert_eq!(parse_status("VmRSS:\t 10 MB\nVmHWM:\t 10 kB\n"), None);
        // A key that merely starts with the name is not the field.
        assert_eq!(parse_status("VmRSSx:\t 10 kB\nVmHWM:\t 10 kB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let m = current();
        assert!(m.rss_kb > 0);
        assert!(m.hwm_kb >= m.rss_kb);
    }
}
