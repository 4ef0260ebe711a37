//! Host-side measurement: per-thread CPU time and run-queue wait, peak
//! RSS, the facts that identify a noisy machine, and order statistics.

use std::ffi::{c_int, c_long};
use std::io;

/// `struct timespec` on Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// ns the calling thread has been on a CPU. Exact, unlike schedstat's
/// field 1, which for a running thread lags by up to a scheduler tick
/// (4 ms with a 250 Hz tick, about 8% of a short point).
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock always exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Parses a `/proc/<pid>/task/<tid>/schedstat` line: `(ns on CPU, ns
/// waiting on the run queue)`.
pub fn parse_schedstat(line: &str) -> Option<(u64, u64)> {
    let mut f = line.split_whitespace();
    let cpu = f.next()?.parse().ok()?;
    let wait = f.next()?.parse().ok()?;
    f.next()?.parse::<u64>().ok()?;
    f.next().is_none().then_some((cpu, wait))
}

/// The calling thread's `(ns on CPU, ns waiting on the run queue)`.
pub fn try_thread_schedstat() -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    parse_schedstat(&text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("schedstat {text:?}")))
}

/// ns the calling thread has waited on the run queue, after `main` has
/// checked that schedstat is readable.
pub(crate) fn thread_runq_wait_ns() -> u64 {
    try_thread_schedstat()
        .expect("schedstat was readable at startup")
        .1
}

/// CPU seconds the calling thread spends in `f`, with its result.
pub fn cpu_seconds<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let c0 = thread_cpu_ns();
    let r = f();
    ((thread_cpu_ns() - c0) as f64 / 1e9, r)
}

/// Resets the process's peak RSS to its current RSS.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak RSS since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// CPUs available, kernel release and load average: printed at start and
/// end so a noisy run can be recognised.
pub fn machine_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let loadavg = read("/proc/loadavg");
    let load: Vec<&str> = loadavg.split_whitespace().take(3).collect();
    format!(
        "nproc={nproc} kernel={} loadavg={}",
        read("/proc/sys/kernel/osrelease").trim(),
        load.join(",")
    )
}

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// The `p`-quantile of `values` by the exclusive method (Python's
/// `statistics.quantiles` default): position `(n + 1) p`, clamped to the
/// samples, interpolated linearly.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let h = ((n + 1) as f64 * p).clamp(1.0, n as f64);
            let lo = h.floor() as usize;
            let frac = h - lo as f64;
            let hi = (lo + 1).min(n);
            v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
        }
    }
}

/// Summarises `values` (NaN fields for an empty set).
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: quantile(values, 0.5),
        q1: quantile(values, 0.25),
        q3: quantile(values, 0.75),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!(summarize(&[4.0]).median, 4.0);
        assert_eq!(quantile(&[3.0, 1.0], 0.5), 2.0);
    }

    #[test]
    fn this_thread_has_cpu_time_and_a_peak_rss() {
        try_thread_schedstat().expect("linux procfs");
        let (s, n) = cpu_seconds(|| (0..1_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(s > 0.0 && n > 0);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
