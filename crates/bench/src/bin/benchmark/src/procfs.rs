//! Process counters read from `/proc/self`: peak resident memory and minor
//! page faults. Both read as `None` where `/proc` is unavailable.

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_minflt(&stat)
}

/// Extracts `VmHWM` (kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Extracts `minflt` (field 10) from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_minflt(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // Fields 3.. follow the command: state, ppid, pgrp, session, tty_nr,
    // tpgid, flags, minflt.
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn parses_minflt_past_a_hostile_command_name() {
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194560 8151 0 3 0 12 4 0 0 20 0 1 0";
        assert_eq!(parse_minflt(stat), Some(8151));
        assert_eq!(parse_minflt("4242 (short) S 1"), None);
        assert_eq!(parse_minflt("no parens at all"), None);
    }

    #[test]
    fn live_counters_read_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
            assert!(minor_faults().is_some());
        }
    }
}
