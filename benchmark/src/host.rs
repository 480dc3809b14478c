//! What the host grants this process and what the process has used so far,
//! read from `/proc`. The benchmark refuses to run (no numbers) when these
//! are unreadable: a CPU or memory figure that silently reads 0 is worse
//! than none.

use std::fs;

/// Linux `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI userspace can observe.
const USER_HZ: f64 = 100.0;

/// Static facts about the machine, recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs the OS lets this process run on.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
}

/// Probe the host, or say why the benchmark cannot run here.
pub fn probe() -> Result<Host, String> {
    cpu_seconds().ok_or("cannot read utime/stime from /proc/self/stat")?;
    peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    if nproc < 2 {
        return Err(format!(
            "host grants {nproc} CPU: fleet_steady_par (2 shards) and live_day (2 workers) \
             would measure the scheduler, not the engines"
        ));
    }
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Ok(Host { nproc, cpu_model })
}

/// Process CPU time so far (user + system, every thread, including ones
/// that already exited), in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')')?.1;
    let mut fields = after.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
