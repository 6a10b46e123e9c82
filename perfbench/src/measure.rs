//! Measurement primitives: a counting allocator, process CPU time and
//! peak memory, bounded latency samples, and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::inputs::SplitMix64;

/// `System`, plus a count of allocation events across every thread
/// (alloc, alloc_zeroed and realloc count; frees do not) — the same
/// counting rules as the repository's zero-allocation test.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter
// bump has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation events so far, process-wide.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of every thread so far, seconds.
pub fn cpu_seconds() -> f64 {
    let mut raw = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the
    // 64-bit Linux layout (checked by the cfg above), and getrusage
    // writes only within it.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let seconds = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    seconds(&raw.utime) + seconds(&raw.stime)
}

/// Peak resident set size of this process image so far, KiB
/// (`VmHWM`). Not `ru_maxrss`: that one survives `execve`, so under a
/// launcher it would report the launcher's peak.
pub fn peak_rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}

/// Latency samples in nanoseconds with a bounded memory footprint: a
/// uniform random subset of at most `capacity` values (reservoir
/// sampling with a fixed-seed generator). Random rather than every
/// n-th, because the read-size schedules are periodic and a fixed
/// stride would sample only a few of their entries.
pub struct Samples {
    kept: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: SplitMix64,
}

impl Samples {
    pub fn new(capacity: usize) -> Self {
        Self {
            kept: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: SplitMix64::new(capacity as u64),
        }
    }

    /// Records one latency.
    pub fn push(&mut self, latency: Duration) {
        let ns = nanos(latency) as f64;
        if self.kept.len() < self.capacity {
            self.kept.push(ns);
        } else {
            let slot = self.rng.next_u64() % (self.seen + 1);
            if let Some(kept) = self.kept.get_mut(slot as usize) {
                *kept = ns;
            }
        }
        self.seen += 1;
    }

    /// Latencies recorded (kept or not).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Forgets every value, keeping the reserved memory.
    pub fn clear(&mut self) {
        self.kept.clear();
        self.seen = 0;
    }

    /// The smoothed `q`-quantile (see [`band_quantile`]) in
    /// microseconds. Sorts the kept values in place, so it allocates
    /// nothing (their order does not matter to the reservoir).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.kept.sort_unstable_by(f64::total_cmp);
        band_quantile(&self.kept, q) / 1e3
    }
}

/// Whole nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Linear-interpolated `q`-quantile of an ascending slice (0 if empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// A smoothed `q`-quantile of an ascending slice: the mean of the
/// values ranked within 2.5 percentile points of `q`, but no further
/// than half way to the nearer end (±2.5 points for the median, ±0.5
/// for p99), or the interpolated quantile when that band holds none (0
/// if empty). Clock readings are whole nanoseconds, so on a
/// sub-microsecond operation the plain median would read the same
/// integer on every run, and a tail quantile over a thousand samples
/// would rest on one or two of them.
pub fn band_quantile(sorted: &[f64], q: f64) -> f64 {
    let last = sorted.len().saturating_sub(1) as f64;
    let half_width = (q.min(1.0 - q).max(0.0) / 2.0).min(0.025);
    let low = ((q - half_width).max(0.0) * last).ceil() as usize;
    let high = ((q + half_width).min(1.0) * last).floor() as usize;
    match sorted.get(low..=high) {
        Some(band) if !band.is_empty() => band.iter().sum::<f64>() / band.len() as f64,
        _ => quantile(sorted, q),
    }
}

/// Median of unsorted values (0 if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        // Five values: no rank falls inside the band, so interpolate.
        assert_eq!(band_quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        // 1001 values: ranks 475..=525 are averaged for the median.
        let many: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(band_quantile(&many, 0.5), 500.0);
        // 41 values, band ranks 19..=21 hold 0, 1, 1.
        let steps: Vec<f64> = (0..41).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        assert!((band_quantile(&steps, 0.5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn samples_decimate_but_keep_the_distribution() {
        let mut samples = Samples::new(64);
        for ns in 0..10_000u64 {
            samples.push(Duration::from_nanos(ns));
        }
        assert_eq!(samples.count(), 10_000);
        assert_eq!(samples.kept.len(), 64);
        let p50 = samples.quantile_us(0.5) * 1e3;
        assert!((p50 - 5_000.0).abs() < 1_500.0, "p50 {p50}");
    }
}
