//! Read-only `/proc` readers: per-process peak RSS and CPU time, host CPU
//! time shares, and the host description recorded with every run. The
//! parsers take the file text so they can be tested on fixtures.

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// Linux architecture this runs on).
pub const TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set) of a `/proc/PID/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// `utime + stime` of a `/proc/PID/stat` text, in clock ticks. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from its closing parenthesis.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: field 3 (state) is index 0, so utime (14) is 11.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The aggregate `cpu` line of `/proc/stat`: `(total, idle + iowait, steal)`
/// in clock ticks.
pub fn parse_host_cpu(stat: &str) -> Option<(u64, u64, u64)> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so it is left out of the total.
    let total: u64 = values.iter().take(8).sum();
    let idle = values.get(3)? + values.get(4).copied().unwrap_or(0);
    let steal = values.get(7).copied().unwrap_or(0);
    Some((total, idle, steal))
}

/// Peak RSS of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds (user + system) process `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_S)
}

/// A reading of the host's aggregate CPU counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    idle: u64,
    steal: u64,
}

impl HostCpu {
    pub fn read() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| parse_host_cpu(&text))
            .map(|(total, idle, steal)| Self { total, idle, steal })
            .unwrap_or_default()
    }

    /// `(steal share, idle share)` of the host CPU time between two readings.
    pub fn shares_since(&self, before: &HostCpu) -> (f64, f64) {
        let total = self.total.saturating_sub(before.total).max(1) as f64;
        (
            self.steal.saturating_sub(before.steal) as f64 / total,
            self.idle.saturating_sub(before.idle) as f64 / total,
        )
    }
}

/// One line describing the host: processor count, CPU model and kernel.
pub fn host_description() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{model}\" kernel={kernel}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm() {
        let status =
            "Name:\treproduce\nVmPeak:\t  900000 kB\nVmHWM:\t  211234 kB\nVmRSS:\t 200000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(211_234));
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_odd_command_names() {
        let stat = "4242 (ayd (serve) x) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    1234 567 0 0 20 0 9 0 100 200000000 50000 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_cpu_ticks("1 (x) S 1"), None);
    }

    #[test]
    fn host_cpu_shares() {
        let a = parse_host_cpu("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3 4\n").unwrap();
        assert_eq!(a, (1000, 810, 40));
        let before = HostCpu {
            total: a.0,
            idle: a.1,
            steal: a.2,
        };
        let b = parse_host_cpu("cpu  200 0 100 1500 10 0 0 90 0 0\n").unwrap();
        let after = HostCpu {
            total: b.0,
            idle: b.1,
            steal: b.2,
        };
        let (steal, idle) = after.shares_since(&before);
        assert!((steal - 50.0 / 900.0).abs() < 1e-12);
        assert!((idle - 700.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        assert!(cpu_seconds(pid).is_some());
        assert!(host_description().starts_with("nproc="));
    }
}
