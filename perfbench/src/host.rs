//! Host resource readings from `/proc/self` (Linux). Readings that are
//! unavailable come back as `None`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat`'s CPU times (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Memory high-water mark of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds this process has used so far, user plus system, over all
/// its threads (10 ms resolution).
pub fn cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = rest.next()?.parse().ok()?;
    let stime: f64 = rest.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}
