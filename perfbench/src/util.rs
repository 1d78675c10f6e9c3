//! Small helpers shared by the workloads: order statistics, `/proc`
//! sampling, and the result line the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of an ascending slice, interpolating linearly
/// between neighbouring order statistics; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a sample set in place and returns it (for `quantile`).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample set.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Samples beyond quantile `q` of `n` samples: the guide for whether a
/// tail percentile is backed by enough data (the benchmark wants >= 10).
pub fn beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.1 * 100 from flooring to 9.
    ((1.0 - q) * n as f64 + 1e-9).floor() as usize
}

/// One reading of `/proc/<pid>/status` and `/proc/<pid>/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Live threads.
    pub threads: u64,
    /// Peak resident set (VmHWM), KiB.
    pub hwm_kib: u64,
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// USER_HZ at 100 on every architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Reads `/proc/<pid>/…` (`pid` may be `"self"`); `None` once the
/// process is gone.
pub fn proc_sample(pid: &str) -> Option<ProcSample> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are at offsets 11 and 12.
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
    Some(ProcSample {
        threads: field("Threads:"),
        hwm_kib: field("VmHWM:"),
        cpu_s: (ticks(11) + ticks(12)) / USER_HZ,
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, every thread included (also
/// threads that have exited), milliseconds.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Bytes this process has handed to `write(2)` and friends so far
/// (`/proc/self/io` `wchar`).
pub fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// System-wide CPU ticks from the first line of `/proc/stat`: `(steal,
/// total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time the hypervisor took from this host between two
/// [`cpu_ticks`] readings, percent. Wall-clock figures swing with it.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Why a run produced no valid result.
pub enum Failure {
    /// The program's output disagreed with the reference: the benchmark
    /// prints `"correct": false` and exits non-zero.
    Incorrect(String),
    /// The measurement itself could not be made (an I/O error in the
    /// benchmark's own work directory): no result is printed.
    Invalid(String),
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the correctness verdict, operation counts, and
/// the metrics of the requested kind (end-to-end or per-layer).
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Prints every metric as an aligned text row, then the one-line JSON
    /// result (always the last line of standard output).
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(beyond(100, 0.9), 10);
    }

    #[test]
    fn self_proc_is_readable() {
        let s = proc_sample("self").expect("/proc/self");
        assert!(s.threads >= 1 && s.hwm_kib > 0);
    }
}
