//! Process and machine readings from `/proc` (Linux).

use std::fs;

/// Linux reports `/proc` CPU times in USER_HZ ticks, which is 100 on
/// every mainstream architecture.
pub const TICKS_PER_S: f64 = 100.0;

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    status_field("/proc/self/status", "VmRSS:").unwrap_or(0) * 1024
}

/// User plus system CPU ticks of this process, all threads (exited ones
/// included).
pub fn cpu_ticks() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name, past the state (field
    // 3): utime (field 14) and stime (field 15) land at offsets 10 and 11.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    f.get(10).copied().unwrap_or(0) + f.get(11).copied().unwrap_or(0)
}

/// Machine-wide steal ticks (time the hypervisor ran someone else while
/// this VM wanted the CPU), from the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Involuntary context switches summed over this process's live threads.
pub fn involuntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let path = t.path().join("status");
            status_field(path.to_str()?, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Involuntary context switches of the calling thread.
pub fn thread_involuntary_switches() -> u64 {
    status_field("/proc/thread-self/status", "nonvoluntary_ctxt_switches:").unwrap_or(0)
}

/// CPU time (ns, from `schedstat`) of each live thread whose name starts
/// with `prefix`, by thread id.
pub fn thread_cpu_ns(prefix: &str) -> Vec<(u32, u64)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(u32, u64)> = tasks
        .flatten()
        .filter_map(|t| {
            let comm = fs::read_to_string(t.path().join("comm")).ok()?;
            if !comm.starts_with(prefix) {
                return None;
            }
            let tid = t.file_name().to_str()?.parse().ok()?;
            let sched = fs::read_to_string(t.path().join("schedstat")).ok()?;
            Some((tid, sched.split_whitespace().next()?.parse().ok()?))
        })
        .collect();
    out.sort_unstable();
    out
}
