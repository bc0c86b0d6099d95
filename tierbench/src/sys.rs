//! Process CPU time and peak memory from `/proc/self` (Linux, std only).

/// Kernel clock ticks per second of `utime`/`stime` (`USER_HZ`, 100 on
/// every mainstream Linux build; std offers no `sysconf`).
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesized and may itself contain
/// spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / CLOCK_TICKS_PER_SEC)
}

/// This process's peak resident set size, kB.
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let stat = "4242 (a b) c)) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("12 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t  203952 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(203_952));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_process_readings_are_available() {
        assert!(process_cpu_seconds().is_some());
        assert!(peak_rss_kb().unwrap() > 0);
    }
}
