//! Numbers the benchmark computes itself: percentiles from raw samples,
//! quartile spreads, and the process's own CPU time and resident set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Latency recorded for an op that failed, timed out or answered wrong:
/// it sorts after every real sample, so a failed op misses any latency
/// limit a percentile could express.
pub const FAILED_NS: u64 = u64::MAX;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`.
/// Returns `None` on an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// `ns` as microseconds; a [`FAILED_NS`] sample is `+∞`.
pub fn ns_to_us(ns: u64) -> f64 {
    if ns == FAILED_NS {
        f64::INFINITY
    } else {
        ns as f64 / 1e3
    }
}

/// Percentile of unsorted latency samples, in microseconds (`+∞` when the
/// percentile lands on a failed op, `NaN` when there are no samples).
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p).map_or(f64::NAN, ns_to_us)
}

/// Median of a few float measurements (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// which is what the acceptance check of a benchmark run uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// A `kB` field (`VmHWM:` = peak resident set, `VmRSS:` = resident set now)
/// of the text of `/proc/<pid>/status`, in MB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used so far, from the kernel's nanosecond process clock.
/// `/proc/self/stat` carries the same sum in 10 ms ticks, which is 2.4 % of
/// a restart cycle: a median over cycles then reads the same tick count run
/// after run.
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `struct timespec` (two C longs on
    // Linux), which is all `clock_gettime` asks of its second argument.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "Linux has a process CPU clock");
    time.sec as f64 + time.nsec as f64 / 1e9
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mb(&s, field))
        .expect("/proc/self/status is readable and carries Vm* fields on Linux")
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process right now, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Samples this process's resident set every 20 ms on its own thread, for
/// a typical footprint: the peak is an extreme value and swings with every
/// transient, and a mean follows how long each transient happens to last;
/// the median of the samples does neither.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![rss_mb()];
            // Relaxed: the flag publishes nothing but itself
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                samples.push(rss_mb());
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stop sampling; returns `(median MB, samples)`.
    pub fn finish(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("sampler thread panicked");
        (median(&samples), samples.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.9), Some(90));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_failed_op_counts_as_infinite_latency() {
        // 2 of 10 ops failed: p50 is a real latency, p90 is +∞
        let mut s = vec![
            FAILED_NS, 3_000, 1_000, 2_000, 5_000, 4_000, 6_000, 7_000, 8_000, FAILED_NS,
        ];
        assert_eq!(percentile_us(&mut s, 0.5), 5.0);
        assert_eq!(percentile_us(&mut s, 0.8), 8.0);
        assert!(percentile_us(&mut s, 0.9).is_infinite());
        assert!(percentile_us(&mut [], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn proc_status_reads_the_high_water_mark() {
        let status = "Name:\te2e\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM:"), Some(200.0));
        assert_eq!(parse_status_mb(status, "VmRSS:"), Some(1.0));
        assert_eq!(parse_status_mb("Name:\te2e\n", "VmHWM:"), None);
    }

    #[test]
    fn live_process_readings_are_sane() {
        let cpu0 = process_cpu_s();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(2) {}
        let used = process_cpu_s() - cpu0;
        assert!(used > 0.0 && used < 10.0, "{used} s of CPU in a 2 ms spin");
        let sampler = RssSampler::start();
        let (typical, samples) = sampler.finish();
        assert!(samples >= 1 && typical > 0.0 && typical <= peak_rss_mb());
    }
}
