//! Spans recorded from outside the program: the benchmark times its
//! own calls into each layer's public functions and keeps the spans in
//! memory until the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::inputs::mix64;
use crate::measure::nanos;

/// Low bits of a span or request id hold a per-thread sequence number;
/// the high bits name the thread, so ids from pooled threads never
/// collide.
const THREAD_SHIFT: u32 = 48;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The logical request every span of one operation shares.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// An in-memory span list for one thread.
///
/// Requests are sampled: request `seq` is traced when
/// `mix64(seq) % stride == 0`. When the list reaches its capacity the
/// stride doubles and the spans of requests no longer sampled are
/// dropped, so a long window is covered evenly in bounded memory. The
/// hash keeps the sample from aliasing with the periodic read-size
/// schedules and session rotation. A disabled tracer records
/// nothing and costs one branch per request.
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    enabled: bool,
    capacity: usize,
    stride: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer for `thread`, timing against `epoch`.
    pub fn new(epoch: Instant, thread: u64, capacity: usize) -> Self {
        Self {
            epoch,
            thread,
            enabled: true,
            capacity,
            stride: 1,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now(), 0, 0)
        }
    }

    /// Whether request `seq` is traced.
    pub fn sampled(&self, seq: u64) -> bool {
        self.enabled && mix64(seq) % self.stride == 0
    }

    /// Reserves a span id (so children can name their parent before
    /// the parent span has ended).
    pub fn reserve(&mut self) -> u64 {
        let id = (self.thread << THREAD_SHIFT) | self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span for request `seq` under a reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        seq: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            request: (self.thread << THREAD_SHIFT) | seq,
            name,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
        });
        if self.spans.len() >= self.capacity {
            self.stride *= 2;
            let stride = self.stride;
            let mask = (1u64 << THREAD_SHIFT) - 1;
            self.spans.retain(|s| mix64(s.request & mask) % stride == 0);
        }
    }

    /// Records a span with a fresh id; returns the id.
    pub fn span(
        &mut self,
        parent: u64,
        seq: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record(id, parent, seq, name, start, end);
        id
    }

    /// Runs `f`, recording it as a span when request `seq` is sampled.
    pub fn time<R>(
        &mut self,
        parent: u64,
        seq: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.sampled(seq) {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.span(parent, seq, name, start, Instant::now());
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}

/// Summed duration (ns) of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// Share of the root span named `root` that none of its direct
/// children covers (0 when there is no such root).
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let Some(root) = spans.iter().find(|s| s.name == root) else {
        return 0.0;
    };
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == root.id)
        .map(Span::ns)
        .sum();
    if root.ns() == 0.0 {
        return 0.0;
    }
    ((root.ns() - covered) / root.ns()).max(0.0)
}

/// Writes `spans` as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )
        .expect("formatting into a String cannot fail");
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_halves_the_sampled_requests() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, 1, 8);
        for seq in 0..8 {
            tracer.time(0, seq, "op", || ());
        }
        // The eighth span hit the capacity: the stride doubled and only
        // requests still sampled at stride 2 remain.
        let kept: Vec<u64> = (0..8).filter(|&seq| mix64(seq) % 2 == 0).collect();
        assert!((0..8).all(|seq| tracer.sampled(seq) == kept.contains(&seq)));
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), kept.len());
    }

    #[test]
    fn unattributed_share_is_the_gap_between_children() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, 0, 64);
        let at = |ns| epoch + std::time::Duration::from_nanos(ns);
        let root = tracer.reserve();
        tracer.span(root, 0, "child", at(0), at(60));
        tracer.span(root, 0, "child", at(70), at(90));
        tracer.record(root, 0, 0, "root", at(0), at(100));
        let share = unattributed_share(&tracer.into_spans(), "root");
        assert!((share - 0.2).abs() < 1e-9, "share {share}");
    }
}
