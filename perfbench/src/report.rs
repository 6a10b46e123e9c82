//! Run phases, metrics and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::measure::{self, median, Samples};
use crate::trace::{Span, Tracer};

/// Latency samples kept per thread and slice (8 B each, reserved up
/// front and reused from slice to slice).
const SAMPLE_CAPACITY: usize = 1 << 13;
/// Length of one slice of a timed window on the key-sized workloads.
pub const SLICE_S: f64 = 0.1;
/// Spans kept per live thread before sampling thins them.
const LIVE_SPAN_CAPACITY: usize = 1 << 16;
/// Span capacity of a replay (large enough that nothing is thinned).
const REPLAY_SPAN_CAPACITY: usize = 1 << 20;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Times a workload's set-up (build through first delivered byte)
/// `SETUP_REPS` times. Dropping each set-up (which joins its workers)
/// happens outside the timed span. Workloads call this after their
/// timed window, once the run's own state is dropped: timed first
/// thing in a process started on an idle host, every set-up of a run
/// could take twice as long as usual.
pub fn time_set_ups<T>(mut open: impl FnMut() -> T) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            let state = open();
            let elapsed = start.elapsed().as_secs_f64();
            drop(state);
            elapsed
        })
        .collect()
}

/// How one invocation runs.
pub struct RunConfig {
    pub seconds: f64,
    pub traced: bool,
    /// Time zero of every span in the run.
    pub epoch: Instant,
}

impl RunConfig {
    /// The timed phases as `(seconds, traced)`: one untraced window, or
    /// for a traced run an untraced half then a traced half, so the
    /// tracing overhead is measured on the same source.
    pub fn phases(&self) -> Vec<(f64, bool)> {
        if self.traced {
            vec![(self.seconds / 2.0, false), (self.seconds / 2.0, true)]
        } else {
            vec![(self.seconds, false)]
        }
    }

    /// A live-path tracer for `thread` in a phase.
    pub fn tracer(&self, thread: u64, traced_phase: bool) -> Tracer {
        if traced_phase {
            Tracer::new(self.epoch, thread, LIVE_SPAN_CAPACITY)
        } else {
            Tracer::off()
        }
    }

    /// The replay tracer (off in untraced runs).
    pub fn replay_tracer(&self, thread: u64) -> Tracer {
        if self.traced {
            Tracer::new(self.epoch, thread, REPLAY_SPAN_CAPACITY)
        } else {
            Tracer::off()
        }
    }
}

/// Wall-clock, process CPU and allocations across one timed window.
pub struct Window {
    start: Instant,
    cpu_s: f64,
    allocations: u64,
}

impl Window {
    pub fn open() -> Self {
        Self {
            cpu_s: measure::cpu_seconds(),
            allocations: measure::allocations(),
            start: Instant::now(),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn deadline(&self, seconds: f64) -> Instant {
        self.start + std::time::Duration::from_secs_f64(seconds)
    }

    pub fn close(&self) -> Closed {
        Closed {
            elapsed_s: self.start.elapsed().as_secs_f64(),
            cpu_s: measure::cpu_seconds() - self.cpu_s,
            allocations: measure::allocations() - self.allocations,
            peak_rss_kib: measure::peak_rss_kib(),
        }
    }
}

/// A closed [`Window`].
pub struct Closed {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub allocations: u64,
    pub peak_rss_kib: f64,
}

/// What one timed phase delivered.
pub struct Phase {
    pub window: Closed,
    /// Entropy bytes delivered to consumers.
    pub bytes: u64,
    /// Consumer operations completed.
    pub ops: u64,
    /// The window cut into consecutive slices (see [`Slicer`]).
    pub slices: Vec<Slice>,
}

impl Phase {
    pub fn mbps(&self) -> f64 {
        ratio(self.bytes as f64 * 8.0, self.window.elapsed_s * 1e6)
    }
}

/// One slice of a timed window: what it delivered, the process CPU it
/// took, and the quantiles of the latencies recorded in it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub bytes: u64,
    pub reads: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Slice {
    fn mbps(&self) -> f64 {
        ratio(self.bytes as f64 * 8.0, self.elapsed_s * 1e6)
    }

    fn cpu_ns_per_bit(&self) -> f64 {
        ratio(self.cpu_s * 1e9, self.bytes as f64 * 8.0)
    }

    /// Slice `i` of every load thread as one: bytes and reads add up,
    /// times and quantiles are the threads' mean. Threads that ended
    /// with fewer slices cut the result short.
    pub fn merge(threads: &[Vec<Slice>]) -> Vec<Slice> {
        let count = threads.iter().map(Vec::len).min().unwrap_or(0);
        let n = threads.len() as f64;
        (0..count)
            .map(|i| {
                let mut merged = Slice::default();
                for slice in threads.iter().map(|slices| slices[i]) {
                    merged.elapsed_s += slice.elapsed_s / n;
                    merged.cpu_s += slice.cpu_s / n;
                    merged.bytes += slice.bytes;
                    merged.reads += slice.reads;
                    merged.p50_us += slice.p50_us / n;
                    merged.p99_us += slice.p99_us / n;
                }
                merged
            })
            .collect()
    }
}

/// Cuts one load thread's timed window into slices as its loop runs.
/// On a shared host the same build switches between a fast and a slow
/// state for seconds at a time (about 0.21 against 0.30 us per
/// wire-drbg round trip). A quantile over all the window's reads jumps
/// from one state's value to the other's as the share of time spent in
/// each crosses it; the mean of the slices' own quantiles moves only in
/// proportion to that share. Allocation-free once built: the sampler is
/// reused and the slice list reserved up front.
pub struct Slicer {
    length: Duration,
    start: Instant,
    end: Instant,
    cpu_s: f64,
    bytes: u64,
    latencies: Samples,
    slices: Vec<Slice>,
}

impl Slicer {
    /// Slices of `slice_s` over a window of `seconds` opened at `start`.
    pub fn new(start: Instant, seconds: f64, slice_s: f64) -> Self {
        let length = Duration::from_secs_f64(slice_s);
        Self {
            length,
            start,
            end: start + length,
            cpu_s: measure::cpu_seconds(),
            bytes: 0,
            latencies: Samples::new(SAMPLE_CAPACITY),
            slices: Vec::with_capacity((seconds / slice_s).ceil() as usize + 2),
        }
    }

    /// Records one read that ended at `end`, in the slice `end` falls in.
    pub fn record(&mut self, end: Instant, latency: Duration, bytes: u64) {
        self.add_bytes(end, bytes);
        self.latencies.push(latency);
    }

    /// Bytes that count towards throughput but have no latency of
    /// their own (reads the workload does not report on).
    pub fn add_bytes(&mut self, end: Instant, bytes: u64) {
        if end >= self.end {
            self.close(end);
        }
        self.bytes += bytes;
    }

    fn close(&mut self, now: Instant) {
        if self.latencies.count() == 0 {
            // No latency to take quantiles of: the slice runs on.
            self.end = now + self.length;
            return;
        }
        let cpu_s = measure::cpu_seconds();
        self.slices.push(Slice {
            elapsed_s: (now - self.start).as_secs_f64(),
            cpu_s: cpu_s - self.cpu_s,
            bytes: self.bytes,
            reads: self.latencies.count(),
            p50_us: self.latencies.quantile_us(0.5),
            p99_us: self.latencies.quantile_us(0.99),
        });
        self.start = now;
        self.end = now + self.length;
        self.cpu_s = cpu_s;
        self.bytes = 0;
        self.latencies.clear();
    }

    /// The slices, the last one included if it lasted at least half a
    /// slice and recorded a read.
    pub fn finish(mut self, now: Instant) -> Vec<Slice> {
        if now - self.start >= self.length / 2 && self.latencies.count() > 0 {
            self.close(now);
        }
        self.slices
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One named, measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable context (base, sample count).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Self {
            name,
            value,
            unit,
            note,
        }
    }
}

/// The end-to-end metrics of a run, from its set-up times and its
/// untraced phase: each rate and latency is the mean over the phase's
/// slices of the slice's own figure (see [`Slicer`]).
pub fn end_to_end(setup_s: &[f64], phase: &Phase) -> Vec<Metric> {
    let slices = &phase.slices;
    let over = |f: fn(&Slice) -> f64| -> (f64, String) {
        let values: Vec<f64> = slices.iter().map(f).collect();
        let note = format!(
            "mean of {} slices (median {:.4})",
            values.len(),
            median(&values)
        );
        (ratio(values.iter().sum(), values.len() as f64), note)
    };
    let reads: u64 = slices.iter().map(|s| s.reads).sum();
    let (mbps, mbps_note) = over(Slice::mbps);
    let (p50, p50_note) = over(|s| s.p50_us);
    let (p99, p99_note) = over(|s| s.p99_us);
    let (cpu, cpu_note) = over(Slice::cpu_ns_per_bit);
    vec![
        Metric::new(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        Metric::new(
            "delivered_mbps",
            mbps,
            "Mbps",
            format!(
                "{mbps_note}; {} B in {:.3} s",
                phase.bytes, phase.window.elapsed_s
            ),
        ),
        Metric::new("read_p50_us", p50, "us", format!("{p50_note}; n={reads}")),
        Metric::new("read_p99_us", p99, "us", format!("{p99_note}; n={reads}")),
        Metric::new(
            "cpu_ns_per_bit",
            cpu,
            "ns/bit",
            format!("{cpu_note}; {:.3} s user+sys", phase.window.cpu_s),
        ),
        Metric::new(
            "peak_rss_mib",
            phase.window.peak_rss_kib / 1024.0,
            "MiB",
            "VmHWM at the end of the window".to_string(),
        ),
    ]
}

/// Everything a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks beyond per-operation failures.
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Prints one line per metric and check, then the result object as
    /// the last line.
    pub fn print(&self, header: &str) {
        println!("# {header}");
        for m in &self.metrics {
            println!("{:<28} {:>16} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        for &(name, ok) in &self.checks {
            println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
        }
        println!(
            "{:<28} {:>16} {:<8} {} failed of {} attempted",
            "ops_failed_ratio",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            self.failed,
            self.attempted
        );
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("formatting into a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            checks: vec![("identity", true)],
            metrics: vec![Metric::new("setup_s", 0.25, "s", String::new())],
            spans: Vec::new(),
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(Metric::new("x", f64::NAN, "s", String::new()).value, 0.0);
    }
}
